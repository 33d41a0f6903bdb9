(* The repository benchmark runner.

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Each workload is a closed loop from one client: items run one after
   another, each started when the previous one returned, with teams of
   two.  With [--trace 0] the run measures the end-to-end metrics (host
   calibrated, see {!Yardstick}); with [--trace 1] a separate traced run
   measures the per-layer metrics.  The last line of standard output is
   the result object; the line before it carries the raw (uncalibrated)
   values, the yardstick log, the tail rank and the environment
   fingerprint. *)

module W = Workloads

let now = Yardstick.now_ns

(* ------------------------------ output ----------------------------- *)

let num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string n)
             (num v) (Spans.json_string u))
         l)
  ^ "}"

let obj l =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Spans.json_string k ^ ": " ^ v) l)
  ^ "}"

let str = Spans.json_string

(* ------------------------------ stats ------------------------------ *)

let sorted l = List.sort compare l

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list (sorted l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest whole percentile with at least ten samples beyond it
   (nearest-rank), with its rank and the sample count. *)
let tail l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then (0, 0, 0, 0.)
  else if n <= 10 then (100, n, n, a.(n - 1))
  else
    let p = 100 * (n - 10) / n in
    let rank = max 1 ((p * n + 99) / 100) in
    (p, rank, n, a.(rank - 1))

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* --------------------------- environment --------------------------- *)

(* Reads to end of file: /proc files report a length of zero. *)
let read_opt path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents b)

let git_rev () =
  match read_opt ".git/HEAD" with
  | None -> "none"
  | Some h ->
      let h = String.trim h in
      if String.length h > 5 && String.sub h 0 5 = "ref: " then
        let r = String.sub h 5 (String.length h - 5) in
        match read_opt (Filename.concat ".git" r) with
        | Some v -> String.trim v
        | None -> r
      else h

(* Digest of every file under lib/: identifies the code under test
   when the checkout is not a git repository. *)
let src_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        Array.sort compare names;
        Array.to_list names
        |> List.concat_map (fun f ->
               let p = Filename.concat dir f in
               if Sys.is_directory p then files p else [ p ])
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (Digest.to_hex (Digest.file p)))
    (files "lib");
  Digest.to_hex (Digest.string (Buffer.contents b))

let omp_vars () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv ->
         let pre p = String.length kv >= String.length p && String.sub kv 0 (String.length p) = p in
         pre "OMP_" || pre "ZIGOMP_")
  |> sorted

let fingerprint () =
  obj
    [ ("ocaml", str Sys.ocaml_version);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("git_rev", str (git_rev ()));
      ("src_digest", str (src_digest ()));
      ("env", "[" ^ String.concat ", " (List.map str (omp_vars ())) ^ "]") ]

let peak_rss_mb () =
  match read_opt "/proc/self/status" with
  | None -> 0.
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' s)

(* ---------------------------- seed test ---------------------------- *)

(* The same seed must give byte-identical inputs; another seed must give
   different inputs with identical work (ids, trips, regions, items). *)
let seed_test (wl : W.t) seed =
  let a = wl.W.inputs ~seed and b = wl.W.inputs ~seed in
  let c = wl.W.inputs ~seed:(seed + 1) in
  let work l = List.map (fun (id, _, w) -> (id, w)) l in
  let identical = a = b in
  let differ = List.exists2 (fun (_, d1, _) (_, d2, _) -> d1 <> d2) a c in
  let same_work = work a = work c in
  ( identical && differ && same_work,
    obj
      [ ("identical_inputs", string_of_bool identical);
        ("other_seed_differs", string_of_bool differ);
        ("same_work", string_of_bool same_work);
        ("items_per_round", string_of_int (List.length a)) ] )

(* ------------------------------ tally ------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable passed : int;
  mutable final : int;
  mutable failures : string list;
}

let tally () = { attempted = 0; passed = 0; final = 0; failures = [] }

let count t (id : string) (r : W.result) =
  t.attempted <- t.attempted + 1;
  if r.W.pass then t.passed <- t.passed + 1
  else if not (List.mem id t.failures) then t.failures <- id :: t.failures;
  if r.W.final then t.final <- t.final + 1

let yard_median log =
  median (List.map float_of_int (Yardstick.valid log))

let dropped_json log =
  obj (List.map (fun (why, n) -> (why, string_of_int n)) (Yardstick.dropped log))

let emit_result ~correct ~attempted ~failed metrics =
  print_endline
    (obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", metrics_json metrics) ])

(* --------------------------- measured run -------------------------- *)

let n_setups = 7

let measure (wl : W.t) ~seed ~seconds =
  let seed_ok, seed_json = seed_test wl seed in
  let log = Yardstick.create wl.W.yardstick in
  let y_ref = Yardstick.y_ref_ns wl.W.yardstick in
  (* a timed stretch: raw ns and the log entry taken just before it *)
  let cal (raw, i) =
    raw *. y_ref /. Yardstick.local log i ~dur:(int_of_float raw)
  in
  let setups = ref [] in
  let setup () =
    let i = Yardstick.take log in
    let t0 = now () in
    let items = wl.W.setup ~seed ~traced:false in
    let dt = now () - t0 in
    ignore (Yardstick.take log);
    setups := (float_of_int dt, i) :: !setups;
    items
  in
  let budget = seconds * 1_000_000_000 in
  let t_start = now () in
  let items = ref (setup ()) in
  let order = W.order wl ~seed !items in
  (* per round, per item: its timed segments; a long item may pause at
     checkpoints, where the runner takes a yardstick sample outside the
     item's time *)
  let round_log = ref [] in
  let t = tally () in
  let rounds = ref 0 and last_round = ref 0 in
  while !rounds < wl.W.tail_rounds || now () - t_start + !last_round <= budget do
    (* set-ups are spread evenly over the run *)
    if List.length !setups < n_setups
       && now () - t_start >= List.length !setups * budget / n_setups
    then items := setup ();
    let r0 = now () in
    let round = ref [] in
    let prev = ref (Yardstick.take log) in
    Array.iter
      (fun idx ->
        let it = !items.(idx) in
        if wl.W.fresh_heap then begin
          Gc.full_major ();
          prev := Yardstick.take log
        end;
        let call = it.W.run () in
        let segs = ref [] in
        let t0 = ref (now ()) in
        (W.checkpoint :=
           fun () ->
             segs := (float_of_int (now () - !t0), !prev) :: !segs;
             prev := Yardstick.take log;
             t0 := now ());
        let judge = call () in
        segs := (float_of_int (now () - !t0), !prev) :: !segs;
        W.checkpoint := ignore;
        let res = judge () in
        prev := Yardstick.take log;
        round := !segs :: !round;
        count t it.W.id res)
      order;
    round_log := !round :: !round_log;
    last_round := now () - r0;
    incr rounds
  done;
  while List.length !setups < n_setups do ignore (setup ()) done;
  let sum = List.fold_left ( +. ) 0. in
  let all_items = List.concat !round_log in
  let item_cal = List.map (fun segs -> sum (List.map cal segs)) all_items in
  let item_raw = List.map (fun segs -> sum (List.map fst segs)) all_items in
  (* the tail comes from the first [tail_rounds] rounds: a fixed multiset
     of items, so its rank always falls in the same group of items *)
  let first_rounds f =
    List.rev !round_log
    |> List.filteri (fun i _ -> i < wl.W.tail_rounds)
    |> List.concat_map (List.map (fun segs -> sum (List.map f segs)))
  in
  let cal_setups = List.map cal !setups in
  let raw_setups = List.map fst !setups in
  let n = float_of_int (List.length all_items) in
  let p, rank, nt, tail_cal = tail (first_rounds cal) in
  let _, _, _, tail_raw = tail (first_rounds fst) in
  let metrics =
    [ ("setup_s", median cal_setups /. 1e9, "s");
      ("throughput_per_s", n /. (sum item_cal /. 1e9), "1/s");
      ("latency_p50_ms", median item_cal /. 1e6, "ms");
      ("latency_tail_ms", tail_cal /. 1e6, "ms");
      ("pass_ratio", float_of_int t.passed /. float_of_int t.attempted, "ratio");
      ("complete_ratio", float_of_int t.final /. float_of_int t.attempted, "ratio");
      ("peak_rss_mb", peak_rss_mb (), "MB") ]
  in
  let raw =
    [ ("setup_s", median raw_setups /. 1e9, "s");
      ("throughput_per_s", n /. (sum item_raw /. 1e9), "1/s");
      ("latency_p50_ms", median item_raw /. 1e6, "ms");
      ("latency_tail_ms", tail_raw /. 1e6, "ms") ]
  in
  let round_s =
    List.rev_map
      (fun round ->
        let r = sum (List.concat_map (List.map fst) round) in
        let c = sum (List.concat_map (List.map cal) round) in
        Printf.sprintf "[%s, %s]" (num (r /. 1e9)) (num (c /. 1e9)))
      !round_log
  in
  print_endline
    (obj
       [ ("workload", str wl.W.name);
         ("seed", string_of_int seed);
         ("mode", str "measure");
         ("rounds", string_of_int !rounds);
         ("items_per_round", string_of_int (Array.length order));
         ("tail", obj [ ("percentile", string_of_int p); ("rank", string_of_int rank);
                        ("samples", string_of_int nt);
                        ("rounds", string_of_int wl.W.tail_rounds) ]);
         ("raw", metrics_json raw);
         ("rounds_raw_cal_s", "[" ^ String.concat ", " round_s ^ "]");
         ("yardstick",
           obj
             [ ("kind", str (Yardstick.name wl.W.yardstick));
               ("ref_ms", num (y_ref /. 1e6));
               ("median_ms", num (yard_median log /. 1e6));
               ("samples", string_of_int log.Yardstick.n);
               ("dropped", dropped_json log);
               ("max_minor_words", num !Yardstick.minor_words_used);
               ("minor_heap_words", string_of_int (Yardstick.minor_heap_words ())) ]);
         ("failures", "[" ^ String.concat ", " (List.map str t.failures) ^ "]");
         ("seed_test", seed_json);
         ("env", fingerprint ()) ]);
  emit_result ~correct:(seed_ok && t.failures = []) ~attempted:t.attempted
    ~failed:(t.attempted - t.passed) metrics

(* ---------------------------- traced run --------------------------- *)

type prof = {
  constructs : Omprt.Profile.snapshot list;
  bc : Omprt.Profile.bc_stats;
  tasks : Omprt.Profile.task_stats;
}

let snapshot () =
  { constructs = Omprt.Profile.snapshot ();
    bc = Omprt.Profile.bc_stats ();
    tasks = Omprt.Profile.task_stats () }

let construct p c =
  match List.find_opt (fun s -> s.Omprt.Profile.construct = c) p.constructs with
  | Some s -> (s.Omprt.Profile.count, s.Omprt.Profile.total)
  | None -> (0, 0.)

(* The fixed probe: a small, seed-independent load that touches every
   layer, so each per-layer metric reads on every workload.  Metrics
   prefer spans from the workload's own items and fall back to these. *)
let fork_k = 2000
let barrier_k = 200
let barrier_b = 16
let dispatch_n = 20_000
let task_k = 2000

let probe ~with_checker =
  Spans.current_item := ("probe", Spans.Probe);
  let st = Gen.rng ~seed:0 ~salt:7 in
  let dot = Gen.kernel_source st Gen.Dot in
  let dot_case = Gen.kernel_case st Gen.Dot Gen.Mid dot in
  let sten = Gen.kernel_source st Gen.Stencil in
  let sten_case = Gen.kernel_case st Gen.Stencil Gen.Fork_bound sten in
  let speedup_items = ref [] in
  List.iter
    (fun tier ->
      List.iter
        (fun ((k : Gen.kernel_src), (c : Gen.kernel_case), sched) ->
          let name = k.Gen.fname ^ ".zr" in
          Layers.frontend ~name (k.Gen.src sched);
          let prog = Layers.compile ~backend:tier ~name (k.Gen.src sched) in
          let go () =
            let args = c.Gen.args () in
            fun () ->
              ignore (Zigomp.call prog k.Gen.fname args);
              fun () -> { W.pass = true; final = true; out = "" }
          in
          if tier <> `Ast then speedup_items := go :: !speedup_items;
          for _ = 1 to 3 do
            Spans.item ~origin:Spans.Probe ("probe/" ^ name) (fun () ->
                ignore (Layers.call prog k.Gen.fname (c.Gen.args ())))
          done)
        [ (dot, dot_case, Gen.Dynamic); (sten, sten_case, Gen.Static) ])
    [ `Compiled; `Bytecode; `Ast ];
  let module O = Omprt.Omp in
  Spans.span ~count:fork_k "omprt.fork_join" (fun () ->
      for _ = 1 to fork_k do O.parallel ~num_threads:2 (fun () -> ()) done);
  Spans.span ~count:(barrier_k * barrier_b) "omprt.barrier_region" (fun () ->
      for _ = 1 to barrier_k do
        O.parallel ~num_threads:2 (fun () ->
            for _ = 1 to barrier_b do O.barrier () done)
      done);
  Spans.span ~count:dispatch_n "omprt.dispatch" (fun () ->
      O.parallel ~num_threads:2 (fun () ->
          O.ws_for ~sched:(Omp_model.Sched.Dynamic 1) ~lo:0 ~hi:dispatch_n
            (fun _ _ -> ())));
  Spans.span ~count:task_k "omprt.task_region" (fun () ->
      O.parallel ~num_threads:2 (fun () ->
          O.single (fun () ->
              for _ = 1 to task_k do O.task (fun () -> ()) done;
              O.taskwait ())));
  Spans.span ~count:task_k "omprt.task_region_empty" (fun () ->
      O.parallel ~num_threads:2 (fun () -> O.single (fun () -> ())));
  let fib = Gen.task_fib st 12 in
  let fprog = Layers.compile ~backend:`Compiled ~name:"probe_fib.zr" fib.Gen.tsrc in
  Spans.span "probe.fib" (fun () -> ignore (Zigomp.call fprog fib.Gen.entry (fib.Gen.targs ())));
  if with_checker then
    List.iter
      (fun r ->
        let src = Gen.jacobi st r in
        let name = Printf.sprintf "probe_jacobi_%d.zr" r in
        Spans.item ~origin:Spans.Probe name (fun () ->
            ignore (Layers.check ~config:W.arm_config ~regions:r ~name src));
        let p = Zigomp.compile ~backend:`Ast ~name src in
        Spans.span ~count:r "interp.walker.run" (fun () -> ignore (Zigomp.run_main p)))
      [ 25; 50; 100; 200 ];
  List.iter
    (fun racy ->
      let src, _ = Gen.mixed st ~racy in
      let name = "probe_mixed.zr" in
      Layers.frontend ~name src;
      Spans.item ~origin:Spans.Probe name (fun () ->
          ignore (Layers.compile ~name src);
          ignore (Layers.analyze ~name src)))
    [ true; false ];
  !speedup_items

let mean_ms f name =
  match Spans.named name with
  | [] -> 0.
  | l -> mean (List.map (fun s -> float_of_int (f s)) l) /. 1e6

(* Mean self time of the spans named [name], grouped by the regions an
   execution forks (the span's count), smallest first. *)
let by_regions name =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.Spans.count > 0 then
        Hashtbl.replace groups s.Spans.count
          (float_of_int (Spans.self s)
          :: (try Hashtbl.find groups s.Spans.count with Not_found -> [])))
    (Spans.named name);
  Hashtbl.fold (fun r l acc -> (float_of_int r, mean l) :: acc) groups []
  |> sorted

(* Log-log least-squares slope. *)
let slope pts =
  let pts = List.map (fun (x, y) -> (Float.log x, Float.log y)) pts in
  let n = float_of_int (List.length pts) in
  if n < 2. then 0.
  else
    let mx = mean (List.map fst pts) and my = mean (List.map snd pts) in
    let sxy = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) ** 2.)) 0. pts in
    if sxx = 0. then 0. else sxy /. sxx

let team_speedup (runs : W.staged list) =
  let pass nt =
    Omprt.Api.set_num_threads nt;
    List.fold_left
      (fun acc f ->
        let call = f () in
        let t0 = now () in
        let judge = call () in
        let dt = now () - t0 in
        ignore (judge ());
        acc +. float_of_int dt)
      0. runs
  in
  let t1 = pass 1 in
  let t2 = pass 2 in
  Omprt.Api.set_num_threads 2;
  if t2 = 0. then 0. else t1 /. t2

let traced (wl : W.t) ~seed ~seconds =
  let seed_ok, seed_json = seed_test wl seed in
  let log = Yardstick.create wl.W.yardstick in
  let items = wl.W.setup ~seed ~traced:false in
  Spans.reset ();
  Spans.enabled := true;
  Spans.current_item := ("setup", Spans.Item);
  let t_items = wl.W.setup ~seed ~traced:true in
  Spans.enabled := false;
  let order = W.order wl ~seed items in
  (* Half the time runs untraced rounds (outputs and raw item time),
     half traced rounds; the ratio of their mean round times is the
     tracing overhead.  Every traced output must equal the untraced one. *)
  let outs = Hashtbl.create 64 in
  let t = tally () in
  let mismatches = ref [] in
  let half = seconds * 500_000_000 in
  let rounds_for ~traced =
    let t_start = now () in
    let rounds = ref 0 and last_round = ref 0 and item_ns = ref 0 in
    while !rounds = 0 || now () - t_start + !last_round <= half do
      let r0 = now () in
      Array.iter
        (fun idx ->
          if wl.W.fresh_heap then Gc.full_major ();
          ignore (Yardstick.take log);
          let it = (if traced then t_items else items).(idx) in
          let r =
            if traced then begin
              let call = it.W.traced () in
              Spans.enabled := true;
              let t0 = now () in
              let judge = Spans.item ~origin:Spans.Item it.W.id call in
              item_ns := !item_ns + (now () - t0);
              it.W.after_traced ();
              Spans.enabled := false;
              let r = judge () in
              if Hashtbl.find_opt outs it.W.id = Some r.W.out then r
              else begin
                if not (List.mem it.W.id !mismatches) then
                  mismatches := it.W.id :: !mismatches;
                { r with W.pass = false }
              end
            end
            else begin
              let call = it.W.run () in
              let t0 = now () in
              let judge = call () in
              item_ns := !item_ns + (now () - t0);
              let r = judge () in
              Hashtbl.replace outs it.W.id r.W.out;
              r
            end
          in
          count t it.W.id r)
        order;
      last_round := now () - r0;
      incr rounds
    done;
    (!rounds, float_of_int !item_ns /. float_of_int !rounds)
  in
  let _, untraced_round_ns = rounds_for ~traced:false in
  Omprt.Profile.reset ();
  Omprt.Profile.enable ();
  let traced_rounds, traced_round_ns = rounds_for ~traced:true in
  let item_prof = snapshot () in
  let item_analyze = Layers.analyze_counts Spans.Item in
  Omprt.Profile.reset ();
  Spans.enabled := true;
  let probe_speedup = probe ~with_checker:(not wl.W.has_checker) in
  Spans.enabled := false;
  let probe_prof = snapshot () in
  Omprt.Profile.disable ();
  let speedup =
    match wl.W.speedup items with
    | [] -> team_speedup probe_speedup
    | l -> team_speedup (List.map (fun it -> it.W.run) l)
  in
  let trace_dir = Filename.concat ".bench_build" "perfbench" in
  (try Unix.mkdir ".bench_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace_path =
    Filename.concat trace_dir (Printf.sprintf "trace-%s.json" wl.W.name)
  in
  Spans.write_chrome trace_path;
  (* profile counters: the workload's items when they used the layer,
     else the probe *)
  let pick used = if used item_prof then item_prof else probe_prof in
  let bcp = pick (fun p -> p.bc.Omprt.Profile.bc_entered + p.bc.Omprt.Profile.bc_bailouts > 0) in
  let tkp = pick (fun p -> p.tasks.Omprt.Profile.tasks_spawned > 0) in
  let rgp = pick (fun p -> fst (construct p Omprt.Profile.Region) > 0) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let bc = bcp.bc and tk = tkp.tasks in
  let fj = Spans.self_per_count "omprt.fork_join" in
  let barrier_ns =
    (float_of_int (Spans.total_self "omprt.barrier_region") -. (fj *. float_of_int barrier_k))
    /. float_of_int (barrier_k * barrier_b)
  in
  let task_spawn_ns =
    float_of_int (Spans.total_self "omprt.task_region" - Spans.total_self "omprt.task_region_empty")
    /. float_of_int task_k
  in
  let ns_per_task =
    if tkp == item_prof then
      let roots = List.filter (fun s -> s.Spans.name = "item" && s.Spans.origin = Spans.Item) !Spans.all in
      float_of_int (List.fold_left (fun a s -> a + s.Spans.dur) 0 roots)
      /. float_of_int (max 1 tk.Omprt.Profile.tasks_spawned)
    else
      float_of_int (Spans.total_self "probe.fib") /. float_of_int (max 1 tk.Omprt.Profile.tasks_spawned)
  in
  let _, region_total = construct rgp Omprt.Profile.Region in
  let _, barrier_total = construct rgp Omprt.Profile.Barrier_wait in
  let execs = by_regions "check.exec" in
  let walks = by_regions "interp.walker.run" in
  let checked_over_walker =
    let rs =
      List.filter_map
        (fun (r, e) -> match List.assoc_opt r walks with Some w when w > 0. -> Some (Float.log (e /. w)) | _ -> None)
        execs
    in
    if rs = [] then 0. else exp (mean rs)
  in
  let exec_region =
    List.filter (fun s -> s.Spans.count > 0) (Spans.named "check.exec")
  in
  let us_per_region =
    let num = List.fold_left (fun a s -> a + Spans.self s) 0 exec_region in
    let den = List.fold_left (fun a s -> a + s.Spans.count) 0 exec_region in
    if den = 0 then 0. else float_of_int num /. float_of_int den /. 1e3
  in
  (* findings per round of the workload's own analyses, else per probe *)
  let proven, may =
    match item_analyze with
    | p, m, calls when calls > 0 ->
        let r = float_of_int traced_rounds in
        (float_of_int p /. r, float_of_int m /. r)
    | _ ->
        let p, m, _ = Layers.analyze_counts Spans.Probe in
        (float_of_int p, float_of_int m)
  in
  let nper = float_of_int (Array.length order) in
  let per_byte n = (n, Spans.self_per_count n, "ns/B") in
  let metrics =
    [ ( "zr.tokenize_ns_per_byte", Spans.self_per_count "zr.tokenize", "ns/B");
      ("zr.parse_ns_per_byte", Spans.self_per_count "zr.parse", "ns/B") ]
    @ List.map
        (fun p ->
          let n, v, u = per_byte ("preproc." ^ p) in
          (n ^ "_ns_per_byte", v, u))
        [ "transform"; "split"; "outline"; "loops"; "tasking"; "sync" ]
    @ [ ("preproc.rounds",
         ratio !Layers.preproc_rounds (max 1 !Layers.preproc_sources), "count");
        ("interp.load_ns_per_byte", Spans.self_per_count "interp.load", "ns/B");
        ("interp.stage_ns_per_byte", Spans.self_per_count "interp.stage", "ns/B");
        ("interp.compiled.call_ms", Spans.median_self_ms "interp.compiled.call", "ms");
        ("interp.bytecode.call_ms", Spans.median_self_ms "interp.bytecode.call", "ms");
        ("interp.bc_bailout_ratio",
         ratio bc.Omprt.Profile.bc_bailouts (bc.Omprt.Profile.bc_entered + bc.Omprt.Profile.bc_bailouts),
         "ratio");
        ("interp.bc_elided_ratio",
         ratio bc.Omprt.Profile.bc_guard_elided (max 1 bc.Omprt.Profile.bc_entered), "ratio");
        ("interp.walker_run_ms", Spans.median_self_ms "interp.walker.run", "ms");
        ("omprt.fork_join_ns", fj, "ns");
        ("omprt.barrier_ns", barrier_ns, "ns");
        ("omprt.dispatch_claim_ns", Spans.self_per_count "omprt.dispatch", "ns");
        ("omprt.barrier_wait_share",
         (if region_total = 0. then 0. else barrier_total /. (2. *. region_total)), "ratio");
        ("omprt.team_speedup", speedup, "x");
        ("omprt.task_spawn_ns", task_spawn_ns, "ns");
        ("omprt.ns_per_task", ns_per_task, "ns");
        ("omprt.steal_ratio",
         ratio tk.Omprt.Profile.task_steals
           (tk.Omprt.Profile.task_steals + tk.Omprt.Profile.task_local_pops),
         "ratio");
        ("omprt.undeferred_ratio",
         ratio tk.Omprt.Profile.tasks_undeferred (max 1 tk.Omprt.Profile.tasks_spawned), "ratio");
        ("check.lint_ms", mean_ms Spans.self "check.lint", "ms");
        ("check.static_ms", mean_ms Spans.self "check.static", "ms");
        ("check.explore_ms", mean_ms (fun s -> s.Spans.dur) "check.explore", "ms");
        ("check.exec_ms", mean_ms Spans.self "check.exec", "ms");
        ("check.dpor_self_ms", mean_ms Spans.self "check.explore", "ms");
        ("check.execs_per_item",
         ratio (Spans.n_spans "check.exec") (max 1 (Spans.n_spans "check.explore")), "count");
        ("check.us_per_region", us_per_region, "us");
        (* over the arm's sizes from 50 regions up: at 25 the fixed
           per-execution cost (program load, team set-up) still flattens
           the curve, and the exponent is meant to show the growth *)
        ("check.region_scaling_exponent",
         slope (List.filter (fun (r, _) -> r >= 50.) execs), "exponent");
        ("check.checked_over_walker", checked_over_walker, "x");
        ("analyze.dataflow_ns_per_byte", Spans.self_per_count "analyze.dataflow", "ns/B");
        ("analyze.autoscope_ns_per_byte", Spans.self_per_count "analyze.autoscope", "ns/B");
        ("analyze.assess_ns_per_byte", Spans.self_per_count "analyze.assess", "ns/B");
        ("analyze.proven", proven, "count");
        ("analyze.may", may, "count");
        ("bench.yardstick_ms", yard_median log /. 1e6, "ms");
        ("bench.raw_throughput_per_s", nper /. (untraced_round_ns /. 1e9), "1/s");
        ("trace_overhead_ratio", traced_round_ns /. untraced_round_ns, "ratio");
        ("trace.uncovered_share", Spans.uncovered_share (), "ratio") ]
  in
  print_endline
    (obj
       [ ("workload", str wl.W.name);
         ("seed", string_of_int seed);
         ("mode", str "trace");
         ("traced_rounds", string_of_int traced_rounds);
         ("spans", string_of_int (List.length !Spans.all));
         ("trace_file", str trace_path);
         ("mismatches", "[" ^ String.concat ", " (List.map str !mismatches) ^ "]");
         ("failures", "[" ^ String.concat ", " (List.map str t.failures) ^ "]");
         ("yardstick", obj [ ("dropped", dropped_json log) ]);
         ("seed_test", seed_json);
         ("env", fingerprint ()) ]);
  emit_result
    ~correct:(seed_ok && t.failures = [] && !mismatches = [])
    ~attempted:t.attempted ~failed:(t.attempted - t.passed) metrics

(* ------------------------------- main ------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload kernels|tasks|check|analyze --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let wl =
    match List.find_opt (fun w -> w.W.name = get "workload") W.all with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  if not (Sys.file_exists "examples/zr" && Sys.is_directory "examples/zr") then begin
    prerr_endline "perfbench: run from the root of a checkout (examples/zr not found)";
    exit 2
  end;
  Omprt.Api.set_num_threads 2;
  if trace = 1 then traced wl ~seed ~seconds else measure wl ~seed ~seconds

