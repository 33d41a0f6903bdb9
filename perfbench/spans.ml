(* In-memory spans for the traced run.

   Spans are opened by the benchmark around its calls into each layer's
   public functions; nothing inside the library is instrumented.  A span
   records its name, start, duration, parent and the item it belongs
   to.  Spans stay in memory while the run lasts and are written out at
   the end as Chrome trace-event JSON (load it in chrome://tracing or
   Perfetto).

   Tracing is off unless [enabled] is set; when off, [span] is a single
   branch around the call. *)

type origin = Item | Probe

type t = {
  id : int;
  name : string;
  parent : int;          (* -1 for a root *)
  item : string;         (* the item (or probe step) this span serves *)
  origin : origin;
  start : int;           (* ns, monotonic *)
  mutable dur : int;     (* ns *)
  mutable child_ns : int;  (* time covered by direct children *)
  mutable count : int;   (* work units attributed to the span, e.g. bytes *)
}

let enabled = ref false
let all : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0
let current_item = ref ("", Item)

let reset () =
  all := [];
  stack := [];
  next_id := 0

let now_ns = Yardstick.now_ns

let span ?(count = 0) name f =
  if not !enabled then f ()
  else begin
    let item, origin = !current_item in
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; parent; item; origin; start = now_ns ();
        dur = 0; child_ns = 0; count }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.dur <- now_ns () - s.start;
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      (match !stack with p :: _ -> p.child_ns <- p.child_ns + s.dur | [] -> ());
      all := s :: !all
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

(* Root span of one item: every layer span opened inside it is its
   descendant. *)
let item ~origin name f =
  current_item := (name, origin);
  span "item" f

let self s = s.dur - s.child_ns

(* Spans named [name], preferring those that served workload items and
   falling back to the fixed probe when the workload's items never
   entered that layer. *)
let named name =
  let mine o = List.filter (fun s -> s.name = name && s.origin = o) !all in
  match mine Item with [] -> mine Probe | l -> l

let total_self name = List.fold_left (fun a s -> a + self s) 0 (named name)
let total_count name = List.fold_left (fun a s -> a + s.count) 0 (named name)
let n_spans name = List.length (named name)

(* Self time per unit of [count] (e.g. ns per source byte). *)
let self_per_count name =
  let c = total_count name in
  if c = 0 then 0. else float_of_int (total_self name) /. float_of_int c

let median_self_ms name =
  match List.sort compare (List.map self (named name)) with
  | [] -> 0.
  | l -> float_of_int (List.nth l (List.length l / 2)) /. 1e6

(* Share of item time that no layer span covers: the benchmark's own
   glue (argument building, result checks) plus anything unattributed. *)
let uncovered_share () =
  let roots = List.filter (fun s -> s.name = "item" && s.origin = Item) !all in
  let tot = List.fold_left (fun a s -> a + s.dur) 0 roots in
  let unc = List.fold_left (fun a s -> a + self s) 0 roots in
  if tot = 0 then 0. else float_of_int unc /. float_of_int tot

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON: complete ("X") events in microseconds. *)
let write_chrome path =
  let spans = List.rev !all in
  let t0 = match spans with [] -> 0 | s :: _ -> s.start in
  let t0 = List.fold_left (fun a s -> min a s.start) t0 spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, \
         \"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"id\": %d, \
         \"parent\": %d, \"item\": %s, \"self_us\": %.3f, \"count\": %d}}"
        (if i = 0 then "" else ",\n")
        (json_string s.name)
        (json_string (match s.origin with Item -> "item" | Probe -> "probe"))
        (float_of_int (s.start - t0) /. 1e3)
        (float_of_int s.dur /. 1e3)
        s.id s.parent (json_string s.item)
        (float_of_int (self s) /. 1e3)
        s.count)
    spans;
  output_string oc "\n], \"displayTimeUnit\": \"ms\"}\n";
  close_out oc
