(* The [zrc --check] race detector, end to end: the racy fixtures under
   examples/zr/racy must each produce findings that name both
   conflicting source locations, their race-free twins under
   examples/zr/clean (and the stock examples) must come back clean, and
   a fixed configuration must be deterministic across runs.  The
   fixture files are build dependencies of the test (see test/dune). *)

module Checker = Zigomp.Checker
module Report = Checker.Report

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples_dir =
  (* the test binary runs in _build/default/test *)
  Filename.concat (Filename.concat ".." "examples") "zr"

let config ?(schedules = 3) ?(sync_sweep = true) () =
  (* the historical tests pin the sampled-schedule behaviour *)
  { Checker.nthreads = 4; schedules; seed = 42; sync_sweep; lint = true;
    exploration = Checker.Sampled }

let dpor_config ?(nthreads = 2) ?(max_execs = 256) ?(preempt_bound = 2) () =
  { Checker.nthreads; schedules = 3; seed = 42; sync_sweep = true;
    lint = true; exploration = Checker.Dpor { max_execs; preempt_bound } }

let check_file ?config:(cfg = config ()) name =
  let path = Filename.concat examples_dir name in
  Zigomp.check ~name ~config:cfg (read_file path)

let lines_of (r : Report.t) =
  List.map (fun (f : Report.finding) -> f.Report.line) r.Report.findings

let contains = Astring_contains.contains

(* ---- racy fixtures ------------------------------------------------ *)

(* Every race line must cite both conflicting accesses, each with a
   line:col position: "race v: <rw>@l:c vs <rw>@l:c :: ...". *)
let both_locations line =
  match String.index_opt line '@' with
  | None -> false
  | Some i ->
      contains line " vs "
      && String.index_from_opt line (i + 1) '@' <> None

let test_racy_fixtures () =
  List.iter
    (fun name ->
      let r = check_file (Filename.concat "racy" name) in
      Alcotest.(check bool) (name ^ ": reported") false (Report.clean r);
      let races = Report.races r in
      Alcotest.(check bool) (name ^ ": at least one race") true
        (List.length races >= 1);
      List.iter
        (fun (f : Report.finding) ->
          Alcotest.(check bool)
            (name ^ ": both locations in " ^ f.Report.line)
            true
            (both_locations f.Report.line))
        races)
    [ "missing_reduction.zr"; "shared_counter.zr"; "nowait_useafter.zr";
      "task_no_taskwait.zr" ]

let test_reduction_suggestion () =
  let r = check_file "racy/missing_reduction.zr" in
  Alcotest.(check bool) "suggests reduction(+: s)" true
    (List.exists (fun l -> contains l "suggest reduction(+: s)")
       (lines_of r))

let test_nowait_lint () =
  let r = check_file "racy/nowait_useafter.zr" in
  Alcotest.(check bool) "dynamic race on q" true
    (List.exists
       (fun (f : Report.finding) ->
         contains f.Report.line "race q")
       (Report.races r));
  Alcotest.(check bool) "nowait-dependent-read lint" true
    (List.exists (fun l -> contains l "nowait-dependent-read") (lines_of r))

(* ---- clean programs ----------------------------------------------- *)

let test_clean_twins () =
  List.iter
    (fun name ->
      let r = check_file (Filename.concat "clean" name) in
      Alcotest.(check (list string)) (name ^ ": no findings") []
        (lines_of r))
    [ "reduction.zr"; "atomic_counter.zr"; "nowait_barrier.zr";
      "task_taskwait.zr" ]

let test_stock_examples_clean () =
  (* reduced schedule set to keep the test quick; the CI job runs the
     full default configuration over every example *)
  let cfg = config ~schedules:1 ~sync_sweep:false () in
  List.iter
    (fun name ->
      let r = check_file ~config:cfg name in
      Alcotest.(check (list string)) (name ^ ": no findings") []
        (lines_of r))
    [ "histogram.zr"; "jacobi.zr" ]

let test_mandelbrot_clean () =
  let cfg = config ~schedules:1 ~sync_sweep:false () in
  let r = check_file ~config:cfg "mandelbrot.zr" in
  Alcotest.(check (list string)) "mandelbrot.zr: no findings" []
    (lines_of r)

(* ---- lint-only sources -------------------------------------------- *)

let divergent_src = {|
fn main() i64 {
    var n: i64 = 8;
    //$omp parallel firstprivate(n)
    {
        if (omp.get_thread_num() == 0) {
            //$omp barrier
            n = 1;
        }
    }
    return 0;
}
|}

let test_divergent_barrier () =
  let r = Zigomp.check ~name:"divergent.zr" ~config:(config ()) divergent_src in
  let ls = lines_of r in
  Alcotest.(check bool) "divergent-barrier lint" true
    (List.exists (fun l -> contains l "divergent-barrier") ls);
  Alcotest.(check bool) "dynamic divergence observed" true
    (List.exists (fun l -> contains l "divergence") ls)

let default_none_src = {|
fn main() i64 {
    var n: i64 = 4;
    var s: i64 = 0;
    //$omp parallel default(none) shared(s)
    {
        //$omp critical
        { s = s + n; }
    }
    return s;
}
|}

let test_default_none_lint () =
  let r =
    Zigomp.check ~name:"defnone.zr" ~config:(config ()) default_none_src
  in
  Alcotest.(check bool) "default-none lint names the variable" true
    (List.exists
       (fun l -> contains l "default-none" && contains l "n")
       (lines_of r));
  (* static finding: nothing executes *)
  Alcotest.(check int) "no schedules explored" 0 r.Report.schedules

(* ---- determinism -------------------------------------------------- *)

let test_deterministic () =
  let once () = Report.to_string (check_file "racy/shared_counter.zr") in
  Alcotest.(check string) "identical report across two runs" (once ())
    (once ())

(* ---- DPOR exploration --------------------------------------------- *)

let executions (r : Report.t) =
  match r.Report.exploration with
  | Some (Report.Complete { executions }) -> executions
  | Some (Report.Bounded { executions; _ }) -> executions
  | _ -> 0

let is_complete (r : Report.t) =
  match r.Report.exploration with
  | Some (Report.Complete _) -> true
  | _ -> false

let is_systematic (r : Report.t) =
  match r.Report.exploration with
  | Some (Report.Complete _) | Some (Report.Bounded _) -> true
  | _ -> false

(* Every racy fixture must be caught by the systematic search too, with
   an honest verdict (COMPLETE, or BOUNDED when the budget truncates). *)
let test_dpor_racy_fixtures () =
  List.iter
    (fun name ->
      let cfg = dpor_config ~max_execs:64 () in
      let r = check_file ~config:cfg (Filename.concat "racy" name) in
      Alcotest.(check bool) (name ^ ": race found under DPOR") true
        (Report.races r <> []);
      Alcotest.(check bool) (name ^ ": systematic verdict") true
        (is_systematic r))
    [ "missing_reduction.zr"; "shared_counter.zr"; "nowait_useafter.zr";
      "task_no_taskwait.zr" ]

(* The race-free twins must come back COMPLETE and clean: the reduced
   interleaving space is exhausted, not merely sampled, at both 2 and 3
   threads. *)
let test_dpor_clean_twins_complete () =
  List.iter
    (fun nthreads ->
      List.iter
        (fun name ->
          let cfg = dpor_config ~nthreads () in
          let r = check_file ~config:cfg (Filename.concat "clean" name) in
          let label = Printf.sprintf "%s at %d threads" name nthreads in
          Alcotest.(check (list string)) (label ^ ": no findings") []
            (lines_of r);
          Alcotest.(check bool) (label ^ ": COMPLETE") true (is_complete r))
        [ "reduction.zr"; "atomic_counter.zr"; "nowait_barrier.zr";
          "task_taskwait.zr" ])
    [ 2; 3 ]

(* The regression the sampler can never catch: hidden_handoff.zr only
   races when thread 0 wins a critical-section handoff, an order the
   seven cost-based schedules provably never execute (thread 0 pays 32
   traced writes before its acquire).  DPOR must find it; the sampler
   must stay quiet; the lock-ordered twin must be COMPLETE-clean. *)
let test_dpor_hidden_handoff () =
  let sampled = check_file ~config:(config ()) "dpor/hidden_handoff.zr" in
  Alcotest.(check (list string)) "sampled schedules miss the race" []
    (lines_of sampled);
  let r = check_file ~config:(dpor_config ()) "dpor/hidden_handoff.zr" in
  Alcotest.(check bool) "DPOR reports the race on data" true
    (List.exists
       (fun (f : Report.finding) -> contains f.Report.line "race data")
       (Report.races r));
  Alcotest.(check bool) "and the search still completes" true
    (is_complete r);
  let twin = check_file ~config:(dpor_config ()) "dpor/hidden_handoff_clean.zr" in
  Alcotest.(check (list string)) "lock-ordered twin is clean" []
    (lines_of twin);
  Alcotest.(check bool) "twin COMPLETE" true (is_complete twin)

(* Same seed, same program, same budget: identical report text and
   identical execution counts.  The whole engine — replay, backtrack-set
   computation, frontier order — must be deterministic. *)
let test_dpor_deterministic () =
  let once name =
    let r = check_file ~config:(dpor_config ~max_execs:64 ()) name in
    (Report.to_string r, executions r)
  in
  List.iter
    (fun name ->
      let s1, n1 = once name and s2, n2 = once name in
      Alcotest.(check string) (name ^ ": identical report") s1 s2;
      Alcotest.(check int) (name ^ ": identical execution count") n1 n2;
      Alcotest.(check bool) (name ^ ": explored something") true (n1 >= 1))
    [ "racy/shared_counter.zr"; "dpor/hidden_handoff.zr" ]

(* Exit-code discipline: findings -> 2; a clean but truncated search is
   only a partial proof -> 1; a clean COMPLETE (or sampled) run -> 0. *)
let test_dpor_exit_codes () =
  let code ?config:(cfg = dpor_config ()) name =
    Report.exit_code (check_file ~config:cfg name)
  in
  Alcotest.(check int) "COMPLETE clean -> 0" 0 (code "clean/reduction.zr");
  Alcotest.(check int) "findings -> 2" 2 (code "dpor/hidden_handoff.zr");
  Alcotest.(check int) "BOUNDED clean -> 1" 1
    (code
       ~config:(dpor_config ~nthreads:3 ~max_execs:4 ())
       "clean/atomic_counter.zr");
  Alcotest.(check int) "sampled clean -> 0" 0
    (code ~config:(config ()) "clean/reduction.zr")

(* Golden exploration pin: every fast fixture of the benchmark's
   [check] workload, at 2 threads with the default DPOR budget, keeps
   its sorted finding lines, its verdict and its execution count.
   Clock-index recycling and the shared shadow table must leave the
   explored interleavings and every reported pair as they were; any
   drift here means a happens-before answer changed. *)
let golden_exploration =
  [
    ( "analyze/private_read_first.zr", "COMPLETE 1",
      [ "error :: dpor: arithmetic on undefined and float" ] );
    ( "analyze/sections_scalar.zr", "COMPLETE 190",
      [ "race w: read@30:34 vs write@35:23 :: `w__ptr.* = w__ptr.* + 2;` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(w)";
        "race w: write@30:23 vs read@35:34 :: `w__ptr.* = w__ptr.* + 2;` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(w)";
        "race w: write@30:23 vs write@35:23 :: `w__ptr.* = w__ptr.* + 2;` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(w)" ] );
    ( "analyze/siv_carried.zr", "COMPLETE 4",
      [ "race a: write@36:9 vs read@36:30 \
         :: `a__ptr.*[__omp_iv] = a__ptr.*[__omp_iv + 1];` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(a)" ] );
    ( "analyze/task_capture_loop.zr", "BOUNDED 256",
      [ "race cap: write@27:32[+] vs read@44:37 \
         :: `{ sum__ptr.* = sum__ptr.* + cap__ptr.*; }` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(cap)" ] );
    ("analyze/taskloop_disjoint.zr", "COMPLETE 4", []);
    ("clean/atomic_counter.zr", "COMPLETE 17", []);
    ("clean/nowait_barrier.zr", "COMPLETE 4", []);
    ("clean/reduction.zr", "COMPLETE 1", []);
    ("clean/sections_atomic.zr", "COMPLETE 63", []);
    ("clean/task_capture_fp.zr", "COMPLETE 13", []);
    ("clean/task_taskwait.zr", "COMPLETE 4", []);
    ( "dpor/hidden_handoff.zr", "COMPLETE 10",
      [ "race data: write@49:22 vs read@59:39 \
         :: `got__ptr.* = data__ptr.*;` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(data)" ] );
    ("dpor/hidden_handoff_clean.zr", "COMPLETE 4", []);
    ( "racy/missing_reduction.zr", "BOUNDED 256",
      [ "race s: read@38:19 vs write@38:19[+] \
         :: `s__ptr.* += x__ptr.*[__omp_iv];` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(s)";
        "race s: write@38:19[+] vs write@38:19[+] \
         :: `s__ptr.* += x__ptr.*[__omp_iv];` :: suggest reduction(+: s)" ] );
    ( "racy/nowait_useafter.zr", "COMPLETE 26",
      [ "lint nowait-dependent-read :: q@24:9 \
         :: written under `for nowait` at 19:9, \
         used before the next barrier";
        "race q: write@34:13 vs read@42:28 \
         :: `total__ptr.* = q__ptr.*[0] + q__ptr.*[n - 1];` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(q)";
        "race q: write@34:13 vs read@42:42 \
         :: `total__ptr.* = q__ptr.*[0] + q__ptr.*[n - 1];` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(q)" ] );
    ( "racy/shared_counter.zr", "COMPLETE 247",
      [ "race counter: write@32:25 vs read@32:42 \
         :: `counter__ptr.* = counter__ptr.* + 1;` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(counter)";
        "race counter: write@32:25 vs write@32:25 \
         :: `counter__ptr.* = counter__ptr.* + 1;` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(counter)" ] );
    ( "racy/task_no_taskwait.zr", "COMPLETE 52",
      [ "race r: read@19:30 vs write@29:13 \
         :: `{ r__ptr.* = r__ptr.* + 1; }` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(r)";
        "race r: write@19:19 vs read@29:24 \
         :: `{ r__ptr.* = r__ptr.* + 1; }` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(r)";
        "race r: write@19:19 vs write@29:13 \
         :: `{ r__ptr.* = r__ptr.* + 1; }` \
         :: suggest atomic/critical around the conflicting accesses, \
         or private(r)" ] );
    ("transform/collapse2.zr", "COMPLETE 1", []);
  ]

let verdict_line (r : Report.t) =
  match r.Report.exploration with
  | Some (Report.Complete { executions }) ->
      Printf.sprintf "COMPLETE %d" executions
  | Some (Report.Bounded { executions; _ }) ->
      Printf.sprintf "BOUNDED %d" executions
  | _ -> "-"

let test_golden_exploration () =
  List.iter
    (fun (name, verdict, lines) ->
      let r = check_file ~config:(dpor_config ~nthreads:2 ()) name in
      Alcotest.(check string) (name ^ ": verdict and executions") verdict
        (verdict_line r);
      Alcotest.(check (list string)) (name ^ ": sorted findings") lines
        (List.sort compare (lines_of r)))
    golden_exploration

(* ---- clock width -------------------------------------------------- *)

(* Clock indices allocated by a short DPOR search of [src] at 2 threads
   (max over its executions). *)
let clock_width ?(max_execs = 2) src =
  let name = "width.zr" in
  let pre = Preproc.Preprocess.run ~name src in
  let load () = Interp.load ~name ~preprocess:false pre in
  let run prog = ignore (Interp.run_main prog) in
  let run_one ex =
    fst (Checker.Sched.run_controlled ~name ~load ~run ~nthreads:2 ~ex ())
  in
  let _, stats = Checker.Dpor.explore ~max_execs ~preempt_bound:2 ~run_one in
  stats.Checker.Dpor.clock_width

let jacobi_src regions =
  Printf.sprintf
    {|fn main() f64 {
    var n: i64 = 8;
    var u = alloc_f64(n);
    var v = alloc_f64(n);
    var resid: f64 = 0.0;
    var sweep: i64 = 0;
    while (sweep < %d) : (sweep += 1) {
        resid = 0.0;
        //$omp parallel shared(u, v, resid) firstprivate(n)
        {
            var i: i64 = 1;
            //$omp for reduction(max: resid)
            while (i < n - 1) : (i += 1) {
                v[i] = 0.5 * (u[i - 1] + u[i + 1]) + 1.0;
                resid = __omp_max(resid, fabs(v[i] - u[i]));
            }
            var j: i64 = 1;
            //$omp for
            while (j < n - 1) : (j += 1) { u[j] = v[j]; }
        }
    }
    return resid;
}
|}
    regions

let fib_src ~calls depth =
  Printf.sprintf
    {|fn fib(n: i64) i64 {
    if (n < 2) { return n; }
    var a: i64 = 0;
    var b: i64 = 0;
    //$omp task shared(a) firstprivate(n)
    { a = fib(n - 1); }
    //$omp task shared(b) firstprivate(n)
    { b = fib(n - 2); }
    //$omp taskwait
    return a + b;
}

fn main() i64 {
    var r: i64 = 0;
    //$omp parallel
    {
        //$omp single
        {
            var k: i64 = 0;
            while (k < %d) : (k += 1) { r = r + fib(%d); }
        }
    }
    return r;
}
|}
    calls depth

(* The clock-width regression: a clock index is recycled at the join
   that orders its holder's last event, so the width follows the
   threads live at once.  Two hundred 2-thread regions run one at a
   time and need the initial thread's index plus one child's; one
   fib(8) call spawns 66 tasks, and three calls in sequence (198 tasks)
   never have more than one call's tasks unjoined.  Both are counts, not
   timings.  The task runs also exercise the checker's hand-out
   assertion: an index handed to a thread whose clock does not cover
   the previous holder's last epoch fails it. *)
let test_clock_width () =
  Alcotest.(check bool) "200 regions stay within 3 indices" true
    (clock_width (jacobi_src 200) <= 3);
  (* 66 tasks of one call plus the 2 team threads *)
  let one_call = 66 + 2 in
  Alcotest.(check bool) "one fib(8) call: within its tasks" true
    (clock_width (fib_src ~calls:1 8) <= one_call);
  Alcotest.(check bool) "three fib(8) calls: within one call's tasks" true
    (clock_width (fib_src ~calls:3 8) <= one_call)

(* ---- differential property: DPOR vs sampling ---------------------- *)

module G = QCheck2.Gen

(* Small random parallel programs over two shared counters: every
   statement template either races, synchronises, or is gated to a
   single thread.  The SPMD body keeps barriers convergent. *)
type op =
  | Plain of string           (* v = v + 1;               racy rmw  *)
  | Crit of string            (* critical { v = v + 1; }  ordered   *)
  | Atomic of string          (* atomic v += 1;           commuting *)
  | Gated of string * int     (* one thread writes        *)
  | Copyv of string * string  (* dst = src;               read+write *)
  | Barrier

let render_op = function
  | Plain v -> Printf.sprintf "        %s = %s + 1;" v v
  | Crit v ->
      Printf.sprintf "        //$omp critical\n        { %s = %s + 1; }" v v
  | Atomic v -> Printf.sprintf "        //$omp atomic\n        %s += 1;" v
  | Gated (v, t) ->
      Printf.sprintf "        if (omp.get_thread_num() == %d) { %s = %s + 1; }"
        t v v
  | Copyv (d, s) -> Printf.sprintf "        %s = %s;" d s
  | Barrier -> "        //$omp barrier"

let op_gen =
  let var = G.oneofl [ "x"; "y" ] in
  G.oneof
    [ G.map (fun v -> Plain v) var;
      G.map (fun v -> Crit v) var;
      G.map (fun v -> Atomic v) var;
      G.map2 (fun v t -> Gated (v, t)) var (G.int_range 0 1);
      G.map2 (fun d s -> Copyv (d, s)) var var;
      G.pure Barrier ]

let program_gen =
  G.map
    (fun ops ->
      Printf.sprintf
        "fn main() i64 {\n\
        \    var x: i64 = 0;\n\
        \    var y: i64 = 0;\n\
        \    //$omp parallel shared(x, y)\n\
        \    {\n\
         %s\n\
        \    }\n\
        \    return x + y;\n\
         }\n"
        (String.concat "\n" (List.map render_op ops)))
    (G.list_size (G.int_range 2 4) op_gen)

let race_ids r =
  List.sort_uniq compare
    (List.map (fun (f : Report.finding) -> f.Report.id) (Report.races r))

(* When the DPOR search completes, it has covered every Mazurkiewicz
   trace class — so it must report (at least) every race any sampled
   schedule can observe.  In particular COMPLETE + clean means the
   sampler is provably quiet.  A BOUNDED run makes no containment
   claim, so those cases pass vacuously. *)
let prop_dpor_superset =
  QCheck2.Test.make ~name:"DPOR findings contain sampled findings" ~count:25
    ~print:(fun s -> s) program_gen
    (fun src ->
      let sampled_cfg =
        { Checker.nthreads = 2; schedules = 3; seed = 42; sync_sweep = true;
          lint = true; exploration = Checker.Sampled }
      in
      let sampled = Zigomp.check ~name:"rand.zr" ~config:sampled_cfg src in
      let dpor =
        Zigomp.check ~name:"rand.zr" ~config:(dpor_config ~max_execs:128 ())
          src
      in
      (not (is_complete dpor))
      || List.for_all
           (fun id -> List.mem id (race_ids dpor))
           (race_ids sampled))

(* ---- corpus batch mode -------------------------------------------- *)

module Corpus = Zigomp.Corpus

let test_corpus_check_clean () =
  let dir = Filename.concat examples_dir "clean" in
  let c =
    Corpus.run ~config:(dpor_config ()) ~kernels:false ~mode:Corpus.Mcheck
      ~dir ()
  in
  Alcotest.(check int) "six entries" 6 (List.length c.Corpus.entries);
  Alcotest.(check int) "clean corpus exits 0" 0 c.Corpus.exit;
  Alcotest.(check bool) "executions summed" true (c.Corpus.total_execs >= 3);
  Alcotest.(check bool) "summary renders" true
    (contains (Corpus.summary c) "6 entries");
  Alcotest.(check bool) "json carries the schema" true
    (contains (Corpus.to_json c) "zigomp-corpus/1")

let test_corpus_check_racy_exit () =
  let dir = Filename.concat examples_dir "dpor" in
  let c =
    Corpus.run ~config:(dpor_config ()) ~kernels:false ~mode:Corpus.Mcheck
      ~dir ()
  in
  Alcotest.(check int) "two entries" 2 (List.length c.Corpus.entries);
  Alcotest.(check int) "racy member dominates the exit" 2 c.Corpus.exit

let test_corpus_analyze () =
  let dir = Filename.concat examples_dir "racy" in
  let c = Corpus.run ~kernels:false ~mode:Corpus.Manalyze ~dir () in
  Alcotest.(check bool) "at least three entries" true
    (List.length c.Corpus.entries >= 3);
  Alcotest.(check int) "proven findings exit 2" 2 c.Corpus.exit;
  Alcotest.(check int) "no dynamic executions in analyze mode" 0
    c.Corpus.total_execs

(* A corpus pointed at a directory with no fixtures must raise, not
   return an empty (vacuously clean) report; a missing directory must
   produce a message naming it. *)
let test_corpus_empty_dir_errors () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "zigomp_empty" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (match Corpus.run ~kernels:false ~mode:Corpus.Manalyze ~dir () with
   | _ -> Alcotest.fail "empty corpus dir must raise"
   | exception Failure msg ->
       Alcotest.(check bool) "message names the directory" true
         (contains msg dir);
       Alcotest.(check bool) "message says no fixtures" true
         (contains msg "no .zr fixtures"))

let test_corpus_missing_dir_errors () =
  let dir = "/nonexistent/zigomp_corpus" in
  (match Corpus.run ~kernels:false ~mode:Corpus.Manalyze ~dir () with
   | _ -> Alcotest.fail "missing corpus dir must raise"
   | exception Failure msg ->
       Alcotest.(check bool) "message says the dir is unreadable" true
         (contains msg "cannot read"));
  (* check mode shares the same hard errors *)
  match Corpus.run ~kernels:false ~mode:Corpus.Mcheck ~dir () with
  | _ -> Alcotest.fail "missing corpus dir must raise in check mode"
  | exception Failure _ -> ()

(* --no-static surfaces raw dynamic findings per entry: every
   statically PROVEN race over the racy fixtures must appear among the
   same entry's unmerged DPOR findings (the CI subset assertion, in
   process). *)
let test_corpus_no_static_subset () =
  let dir = Filename.concat examples_dir "racy" in
  let st = Corpus.run ~kernels:false ~mode:Corpus.Manalyze ~dir () in
  let dyn =
    Corpus.run ~config:(dpor_config ()) ~kernels:false ~no_static:true
      ~mode:Corpus.Mcheck ~dir ()
  in
  List.iter2
    (fun (se : Corpus.entry) (de : Corpus.entry) ->
      Alcotest.(check string) "entries line up" se.Corpus.path
        de.Corpus.path;
      let dyn_ids =
        List.map
          (fun (f : Report.finding) -> f.Report.id)
          de.Corpus.report.Report.findings
      in
      List.iter
        (fun (f : Report.finding) ->
          if
            f.Report.verdict = Some Report.Proven
            && (f.Report.kind = Report.Race || f.Report.kind = Report.Dep)
          then
            Alcotest.(check bool)
              (se.Corpus.path ^ ": " ^ f.Report.id ^ " DPOR-observed")
              true
              (List.mem f.Report.id dyn_ids))
        se.Corpus.report.Report.findings)
    st.Corpus.entries dyn.Corpus.entries

(* --preempt-bound alongside --sampled: the CLI must diagnose the
   no-effect combination instead of silently dropping the bound. *)
let test_sampled_bound_warning () =
  (match Checker.no_effect_warning ~sampled:true ~preempt_bound:(Some 3) with
   | Some msg ->
       Alcotest.(check bool) "warning names the flag" true
         (contains msg "--preempt-bound 3");
       Alcotest.(check bool) "warning names the mode" true
         (contains msg "--sampled")
   | None -> Alcotest.fail "sampled + explicit bound must warn");
  Alcotest.(check bool) "no warning without the flag" true
    (Checker.no_effect_warning ~sampled:true ~preempt_bound:None = None);
  Alcotest.(check bool) "no warning under DPOR" true
    (Checker.no_effect_warning ~sampled:false ~preempt_bound:(Some 3) = None)

let suite =
  [ Alcotest.test_case "racy fixtures report both locations" `Quick
      test_racy_fixtures;
    Alcotest.test_case "missing reduction is suggested as the fix" `Quick
      test_reduction_suggestion;
    Alcotest.test_case "nowait use-after: race + lint" `Quick
      test_nowait_lint;
    Alcotest.test_case "race-free twins are clean" `Quick test_clean_twins;
    Alcotest.test_case "stock examples are clean" `Slow
      test_stock_examples_clean;
    Alcotest.test_case "mandelbrot is clean" `Slow test_mandelbrot_clean;
    Alcotest.test_case "thread-id-gated barrier diverges" `Quick
      test_divergent_barrier;
    Alcotest.test_case "default(none) missing capture" `Quick
      test_default_none_lint;
    Alcotest.test_case "fixed seed is deterministic" `Quick
      test_deterministic;
    Alcotest.test_case "racy fixtures race under DPOR" `Quick
      test_dpor_racy_fixtures;
    Alcotest.test_case "clean twins COMPLETE under DPOR" `Slow
      test_dpor_clean_twins_complete;
    Alcotest.test_case "DPOR finds the sampler-proof race" `Quick
      test_dpor_hidden_handoff;
    Alcotest.test_case "DPOR search is deterministic" `Quick
      test_dpor_deterministic;
    Alcotest.test_case "exit codes: 0/1/2 by verdict" `Quick
      test_dpor_exit_codes;
    Alcotest.test_case "golden exploration of the fast fixtures" `Quick
      test_golden_exploration;
    Alcotest.test_case "clock width follows live threads" `Quick
      test_clock_width;
    QCheck_alcotest.to_alcotest prop_dpor_superset;
    Alcotest.test_case "corpus: clean dir is clean" `Slow
      test_corpus_check_clean;
    Alcotest.test_case "corpus: exit is the max member exit" `Quick
      test_corpus_check_racy_exit;
    Alcotest.test_case "corpus: analyze mode" `Quick test_corpus_analyze;
    Alcotest.test_case "corpus: empty dir errors" `Quick
      test_corpus_empty_dir_errors;
    Alcotest.test_case "corpus: missing dir errors" `Quick
      test_corpus_missing_dir_errors;
    Alcotest.test_case "corpus: --no-static keeps PROVEN ids observable"
      `Slow test_corpus_no_static_subset;
    Alcotest.test_case "sampled + preempt-bound warns" `Quick
      test_sampled_bound_warning;
  ]
