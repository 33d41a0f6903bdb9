(* Host calibration.

   A yardstick is a fixed piece of benchmark-owned work that calls
   nothing in the code under test.  It is timed next to every item, and
   every timed end-to-end metric is reported as

     raw time * y_ref / y_run

   where [y_run] is the yardstick time measured beside the sample (just
   before and after it, over a window as long as the sample, see
   {!local}) and [y_ref] is the
   constant below.  A host that runs everything slower for a while slows
   the yardstick too, and the ratio cancels it; no change to the library
   can move the yardstick.

   Two yardsticks, one per kind of load:
   - [Mix], string hashing plus small allocation on the calling domain,
     tracks the allocation-heavy single-domain loads (check, analyze);
   - [Pair], the same work on the calling domain and on a helper domain
     at once, tracks the two-domain loads (kernels, tasks): it slows
     when either vCPU does.

   A sample starts with an untimed pass (so the timed one starts from
   warm caches whatever the item before it evicted), then [Gc.minor ()];
   the timed passes together allocate less than the minor heap, so they
   trigger no collection of their own.  A sample during which a collection ran anyway
   is dropped and reported with the kind of collection that caused the
   drop. *)

type kind = Mix | Pair

let name = function Mix -> "hash-alloc" | Pair -> "hash-alloc-x2"

(* [y_ref], in ns: a fixed round figure near the median sample time of
   each yardstick on the reference host (2-vCPU x86-64 VM, OCaml 5.1.1,
   release build), where medians ran 0.6-1.0 ms (Mix) and 1.1-1.2 ms
   (Pair).  Calibrated values are expressed in that host's time; the
   constant must never change, or every calibrated metric moves. *)
let y_ref_ns = function Mix -> 800_000. | Pair -> 1_000_000.

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- hashing + small allocation ---- *)

let mix_passes = 2

(* Each domain owns its table and keys. *)
let mixer prefix =
  let keys = Array.init 1024 (fun i -> Printf.sprintf "%s-%06d" prefix (i * 7919)) in
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 2048 in
  fun () ->
    let acc = ref 0 in
    for pass = 1 to mix_passes do
      Hashtbl.clear tbl;
      let l = ref [] in
      Array.iteri
        (fun i k ->
          let k' = k ^ string_of_int pass in
          let h = Hashtbl.hash k' in
          Hashtbl.replace tbl k' (h + i);
          l := (h, i) :: !l)
        keys;
      List.iter (fun (h, i) -> acc := !acc lxor (h + i)) !l;
      Array.iter
        (fun k ->
          match Hashtbl.find_opt tbl (k ^ string_of_int pass) with
          | Some v -> acc := !acc + v
          | None -> ())
        keys
    done;
    !acc

let mix = mixer "key"

(* ---- the same work on both vCPUs ---- *)

(* The helper domain belongs to the benchmark, not to any team.  [cmd]
   is 0 while it sleeps on the condition variable; setting it to a new
   pass number makes it run [mix] once and publish the number in
   [finished].  It spins between the passes of one sample, so the timed
   passes measure both vCPUs' speed, not the wake-up. *)
type helper = {
  m : Mutex.t;
  cv : Condition.t;
  cmd : int Atomic.t;
  finished : int Atomic.t;
  mutable pass : int;
}

let helper =
  lazy
    (let h =
       { m = Mutex.create (); cv = Condition.create (); cmd = Atomic.make 0;
         finished = Atomic.make 0; pass = 0 }
     in
     let work = mixer "kex" in
     let rec loop last =
       match Atomic.get h.cmd with
       | 0 ->
           Mutex.lock h.m;
           while Atomic.get h.cmd = 0 do Condition.wait h.cv h.m done;
           Mutex.unlock h.m;
           loop last
       | g when g <> last ->
           ignore (Sys.opaque_identity (work ()));
           Atomic.set h.finished g;
           loop g
       | _ ->
           Domain.cpu_relax ();
           loop last
     in
     ignore (Domain.spawn (fun () -> loop 0));
     h)

(* One pass on both domains; the first pass of a sample wakes the
   helper. *)
let pair () =
  let h = Lazy.force helper in
  h.pass <- h.pass + 1;
  let g = h.pass in
  if Atomic.get h.cmd = 0 then begin
    Mutex.lock h.m;
    Atomic.set h.cmd g;
    Condition.signal h.cv;
    Mutex.unlock h.m
  end
  else Atomic.set h.cmd g;
  let r = mix () in
  while Atomic.get h.finished <> g do Domain.cpu_relax () done;
  r

let pair_sleep () =
  if Lazy.is_val helper then Atomic.set (Lazy.force helper).cmd 0

let sink = ref 0

(* ---- sampling ---- *)

type sample = Ok of int (* ns *) | Dropped of string (* collection kind *)

(* Team members park within a few hundred spins of a join under the
   default passive wait policy; this busy wait on the clock outlasts
   that budget, so a two-domain sample never shares the host with a
   spinning worker. *)
let settle_ns = 100_000

let settle () =
  let t0 = now_ns () in
  while now_ns () - t0 < settle_ns do
    Domain.cpu_relax ()
  done

let minor_words_used = ref 0.

(* A sample is the fastest of a few back-to-back passes: a sustained
   slowdown of the host shows in all of them, a one-off interruption in
   only one. *)
let timed_passes = 3

let sample kind =
  let run () = match kind with Mix -> mix () | Pair -> pair () in
  (match kind with Pair -> settle () | Mix -> ());
  sink := !sink lxor run ();
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let best = ref max_int in
  for _ = 1 to timed_passes do
    let t0 = now_ns () in
    sink := !sink lxor run ();
    best := min !best (now_ns () - t0)
  done;
  (match kind with Pair -> pair_sleep () | Mix -> ());
  let w1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  minor_words_used := Float.max !minor_words_used (w1 -. w0);
  if s1.Gc.major_collections <> s0.Gc.major_collections then Dropped "major"
  else if s1.Gc.minor_collections <> s0.Gc.minor_collections then
    Dropped "minor"
  else if s1.Gc.compactions <> s0.Gc.compactions then Dropped "compaction"
  else Ok !best

(* A run's yardstick log: every sample in the order taken, with the
   time it was taken; drops are kept so they can be reported. *)
type log = {
  kind : kind;
  mutable samples : sample array;
  mutable at : int array;
  mutable n : int;
}

let create kind =
  { kind; samples = Array.make 1024 (Dropped "none"); at = Array.make 1024 0; n = 0 }

(* Take a sample; returns its index in the log. *)
let take log =
  let t = now_ns () in
  let s = sample log.kind in
  if log.n = Array.length log.samples then begin
    let a = Array.make (2 * log.n) (Dropped "none") in
    Array.blit log.samples 0 a 0 log.n;
    log.samples <- a;
    let b = Array.make (2 * log.n) 0 in
    Array.blit log.at 0 b 0 log.n;
    log.at <- b
  end;
  log.samples.(log.n) <- s;
  log.at.(log.n) <- t;
  log.n <- log.n + 1;
  log.n - 1

let samples log = Array.to_list (Array.sub log.samples 0 log.n)

let valid log =
  List.filter_map (function Ok ns -> Some ns | Dropped _ -> None) (samples log)

let dropped log =
  List.fold_left
    (fun acc -> function
      | Ok _ -> acc
      | Dropped why ->
          let n = try List.assoc why acc with Not_found -> 0 in
          (why, n + 1) :: List.remove_assoc why acc)
    [] (samples log)

let median_of l =
  match List.sort compare l with
  | [] -> None
  | l -> Some (float_of_int (List.nth l (List.length l / 2)))

(* The yardstick time beside a stretch of [dur] ns that ran between log
   entries [i] and [i + 1]: the median of those two and of every valid
   entry taken within [2 * dur] before or after the stretch.  A short
   item is calibrated by its two neighbours; a long one by the host
   speed over its whole span, so one noisy sample cannot swing it.
   Falls back to the median of the whole log. *)
let local log i ~dur =
  let reach = 2 * dur in
  let get j acc =
    match log.samples.(j) with Ok ns -> ns :: acc | Dropped _ -> acc
  in
  let rec back j acc =
    if j < 0 || log.at.(i) - log.at.(j) > reach then acc else back (j - 1) (get j acc)
  in
  let rec fwd j acc =
    if j >= log.n || log.at.(j) - log.at.(i + 1) > reach then acc
    else fwd (j + 1) (get j acc)
  in
  let near =
    (if i >= 0 && i < log.n then get i [] else [])
    |> (fun acc -> if i + 1 < log.n then get (i + 1) acc else acc)
    |> (fun acc -> if i >= 1 && i < log.n then back (i - 1) acc else acc)
    |> fun acc -> if i + 2 < log.n then fwd (i + 2) acc else acc
  in
  match List.sort compare near with
  | [ a; b ] -> float_of_int (a + b) /. 2.
  | [] -> Option.value (median_of (valid log)) ~default:(y_ref_ns log.kind)
  | l ->
      let n = List.length l in
      if n mod 2 = 1 then float_of_int (List.nth l (n / 2))
      else float_of_int (List.nth l ((n / 2) - 1) + List.nth l (n / 2)) /. 2.

(* The minor heap, in words: a sample must allocate less than this. *)
let minor_heap_words () = (Gc.get ()).Gc.minor_heap_size
