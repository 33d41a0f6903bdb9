(* The four workloads.

   A workload turns a seed into runnable items ([setup]: generate the
   inputs, compile, stage and warm up — the timed, repeated set-up) and
   names its yardstick.  Every item knows its own answer, computed here
   in plain OCaml or taken from an official table, never by the code
   under test. *)

module V = Interp.Value
module Report = Check.Report

type result = { pass : bool; final : bool; out : string }

(* An item runs in three stages: [stage ()] builds fresh inputs and
   returns the call; the call returns the judge, which compares the
   output with the known answer.  Only the call is timed. *)
type staged = unit -> unit -> unit -> result

let run_staged (f : staged) = f () () ()

type item = {
  id : string;
  work : Gen.work;
  run : staged;      (* the public entry point, untraced *)
  traced : staged;   (* the same work through {!Layers}, with spans *)
  after_traced : unit -> unit;
      (* extra instrument work after a traced item, outside its span *)
}

type t = {
  name : string;
  yardstick : Yardstick.kind;
  (* id, input digest and declared work of every item, for the seed
     test; generation only, nothing is compiled *)
  inputs : seed:int -> (string * string * Gen.work) list;
  (* [setup ~seed ~traced] compiles, stages and warms up; with
     [traced] the compile goes through {!Layers} with spans *)
  setup : seed:int -> traced:bool -> item array;
  (* items timed at one and at two threads for omprt.team_speedup;
     empty when the workload runs no team *)
  speedup : item array -> item list;
  (* the checker arm of the probe is skipped when the workload's own
     items already exercise the checker *)
  has_checker : bool;
  (* the measured run completes at least this many rounds, and the tail
     latency is taken over exactly these first rounds *)
  tail_rounds : int;
  (* start every item from a collected major heap (outside its time),
     as a fresh [zrc] process would: the heap an item inherits from the
     seed-ordered items before it then cannot change its time *)
  fresh_heap : bool;
  (* the seed shuffles the round's item order, except on the two
     single-domain loads: there the order sets the heap state each item
     meets (check's peak_rss_mb read 40 or 67 MB and analyze's tail 5.0
     or 5.8 ms depending on the seed), so their order stays fixed *)
  shuffle : bool;
}

let order wl ~seed (items : item array) =
  let idx = Array.init (Array.length items) Fun.id in
  if wl.shuffle then Gen.shuffle (Gen.rng ~seed ~salt:99) idx else idx

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let judged expect got =
  { pass = got = expect; final = true; out = Gen.answer_digest got }

let digest s = Digest.to_hex (Digest.string s)

(* Called by a long item between its steps, while no team member runs:
   the measured run takes a yardstick sample there, outside the item's
   time, so each step is calibrated by the host speed beside it. *)
let checkpoint : (unit -> unit) ref = ref ignore

(* ---------------------------- kernels ------------------------------ *)

(* Official NPB 3.x class S verification values (NPB CG/EP reference
   sources), with the epsilons the reference uses. *)
let cg_s_zeta = 8.5971775078648
let cg_epsilon = 1e-10
let ep_s_sx = -3.247834652034740e+3
let ep_s_sy = -6.958407078382297e+3
let ep_epsilon = 1e-8

let kinds = [ Gen.Stencil; Gen.Spmv; Gen.Dot; Gen.Histogram ]
let sizes = [ Gen.Fork_bound; Gen.Mid; Gen.Body_bound ]
let scheds = [ Gen.Static; Gen.Dynamic; Gen.Guided ]
let tiers : Zigomp.backend list = [ `Compiled; `Bytecode ]
let tier_name : Zigomp.backend -> string = function
  | `Compiled -> "compiled" | `Bytecode -> "bytecode" | `Ast -> "ast"

let kernel_inputs seed =
  let st = Gen.rng ~seed ~salt:1 in
  List.map
    (fun kind ->
      let k = Gen.kernel_source st kind in
      let cases = List.map (fun size -> (size, Gen.kernel_case st kind size k)) sizes in
      (kind, k, cases))
    kinds

(* NPB inputs, built once per process: the CG matrix from the
   reference's generator and seed, the IS key sequence. *)
let cg_params = Npb.Classes.Cg.params Npb.Classes.S
let ep_params = Npb.Classes.Ep.params Npb.Classes.S
let is_params = Npb.Classes.Is.params Npb.Classes.S

let cg_matrix =
  lazy
    (let rng = Npb.Randlc.create 314159265.0 in
     ignore (Npb.Randlc.draw rng);
     Npb.Cg.make_matrix cg_params rng)

let is_keys = lazy (Npb.Is.create_seq is_params)

let cg_work =
  { Gen.trips = cg_params.Npb.Classes.Cg.na * cg_params.Npb.Classes.Cg.niter; regions = 0 }

let ep_work = { Gen.trips = Harness.Zr_ep.batches ep_params; regions = 1 }

let is_work =
  { Gen.trips = is_params.Npb.Classes.Is.max_iterations * Npb.Classes.Is.num_keys is_params;
    regions = 0 }

let hosts_registered = ref false

let register_hosts () =
  if not !hosts_registered then begin
    hosts_registered := true;
    Interp.register_host "ep_batch" Harness.Zr_ep.ep_batch;
    List.iter (fun (n, h) -> Interp.register_host n h) Harness.Zr_is.hosts
  end

let compile ~traced ?backend ~name src =
  if traced then begin
    Layers.frontend ~name src;
    Layers.compile ?backend ~name src
  end
  else Zigomp.compile ?backend ~name src

let call ~traced p fname args =
  if traced then Layers.call p fname args else Zigomp.call p fname args

(* NPB CG class S: the reference implementation's 15 outer iterations around
   conj_grad in Zr; zeta checked against the official value. *)
let cg_item prog =
  let m = Lazy.force cg_matrix in
  let n = cg_params.Npb.Classes.Cg.na in
  let x = Array.make n 1.0 in
  let z = Array.make n 0. and pv = Array.make n 0.
  and q = Array.make n 0. and r = Array.make n 0. in
  let conj_grad traced =
    ignore
      (call ~traced prog "conj_grad"
         [ V.VInt n; V.VIntArr m.Npb.Cg.rowstr; V.VIntArr m.Npb.Cg.colidx;
           V.VFloatArr m.Npb.Cg.a; V.VFloatArr x; V.VFloatArr z;
           V.VFloatArr pv; V.VFloatArr q; V.VFloatArr r ])
  in
  let normalise () =
    let n1 = ref 0. and n2 = ref 0. in
    for j = 0 to n - 1 do
      n1 := !n1 +. (x.(j) *. z.(j));
      n2 := !n2 +. (z.(j) *. z.(j))
    done;
    let scale = 1.0 /. sqrt !n2 in
    for j = 0 to n - 1 do x.(j) <- scale *. z.(j) done;
    !n1
  in
  let go traced () =
    Array.fill x 0 n 1.0;
    fun () ->
      let zeta = ref 0. in
      for it = 1 to cg_params.Npb.Classes.Cg.niter do
        if it > 1 then !checkpoint ();
        conj_grad traced;
        zeta := cg_params.Npb.Classes.Cg.shift +. (1.0 /. normalise ())
      done;
      fun () ->
        { pass = Float.abs (!zeta -. cg_s_zeta) <= cg_epsilon; final = true;
          out = Printf.sprintf "%h" !zeta }
  in
  (* warm-up: one untimed conj_grad, as the reference implementation does *)
  conj_grad false;
  { id = "npb/cg/S/bytecode"; work = cg_work; after_traced = ignore;
    run = go false; traced = go true }

let ep_item prog =
  let nn = Harness.Zr_ep.batches ep_params in
  let go traced ~nn () =
    let sums = Array.make 2 0. in
    let q = Array.make Npb.Ep.nq 0. in
    let args = Harness.Zr_ep.args ~nn sums q in
    fun () ->
      ignore (call ~traced prog "ep_main" args);
      fun () ->
        let rel a b = Float.abs ((a -. b) /. b) in
        { pass = rel sums.(0) ep_s_sx <= ep_epsilon && rel sums.(1) ep_s_sy <= ep_epsilon;
          final = true; out = Printf.sprintf "%h/%h" sums.(0) sums.(1) }
  in
  ignore (run_staged (go false ~nn:1));
  { id = "npb/ep/S/compiled"; work = ep_work; after_traced = ignore;
    run = go false ~nn; traced = go true ~nn }

(* NPB IS class S: rank, then the full verification rewritten here —
   the sequence rebuilt from the ranks must equal the sorted keys. *)
let is_item prog tier =
  let p = is_params in
  let pristine = Lazy.force is_keys in
  let go traced ~ithi () =
    let nb = Npb.Classes.Is.num_buckets p in
    let d =
      { Harness.Zr_is.p; keys = Array.copy pristine;
        kb1 = Array.make (Npb.Classes.Is.max_key p) 0;
        kb2 = Array.make (Array.length pristine) 0;
        bc = Array.make (2 * nb) 0; bp = Array.make (2 * nb) 0;
        bstart = Array.make (nb + 1) 0 }
    in
    let args = Harness.Zr_is.rank_args d ~itlo:1 ~ithi in
    fun () ->
    ignore (call ~traced prog "is_rank" args);
    fun () ->
    let nkeys = Array.length d.Harness.Zr_is.keys in
    let sorted = Array.make nkeys 0 in
    let cursors = Array.copy d.Harness.Zr_is.kb1 in
    let ok = ref true in
    for i = nkeys - 1 downto 0 do
      let k = d.Harness.Zr_is.kb2.(i) in
      if k < 0 || k >= Array.length cursors || cursors.(k) <= 0 then ok := false
      else begin
        cursors.(k) <- cursors.(k) - 1;
        sorted.(cursors.(k)) <- k
      end
    done;
    let want = Array.copy d.Harness.Zr_is.keys in
    Array.sort compare want;
    { pass = !ok && sorted = want; final = true;
      out = digest (Marshal.to_string sorted []) }
  in
  ignore (run_staged (go false ~ithi:1));
  { id = "npb/is/S/" ^ tier_name tier;
    work = is_work; after_traced = ignore;
    run = go false ~ithi:p.Npb.Classes.Is.max_iterations;
    traced = go true ~ithi:p.Npb.Classes.Is.max_iterations }

let kernel_setup ~seed ~traced =
  register_hosts ();
  let inputs = kernel_inputs seed in
  let gen =
    List.concat_map
      (fun (kind, (k : Gen.kernel_src), cases) ->
        List.concat_map
          (fun sched ->
            List.concat_map
              (fun tier ->
                let name = Printf.sprintf "%s.zr" k.Gen.fname in
                let prog = compile ~traced ~backend:tier ~name (k.Gen.src sched) in
                List.map
                  (fun (size, (c : Gen.kernel_case)) ->
                    let go traced () =
                      let args = c.Gen.args () in
                      fun () ->
                        let ret = call ~traced prog k.Gen.fname args in
                        fun () -> judged c.Gen.expect (c.Gen.result args ret)
                    in
                    (* warm-up: the fork-bound case of every program once *)
                    if size = Gen.Fork_bound then ignore (run_staged (go false));
                    { id = Printf.sprintf "%s/%s/%s/%s" (Gen.kind_name kind)
                          (Gen.size_name size) (Gen.sched_name sched) (tier_name tier);
                      work = c.Gen.work; after_traced = ignore;
                      run = go false; traced = go true })
                  cases)
              tiers)
          scheds)
      inputs
  in
  let cg = compile ~traced ~backend:`Bytecode ~name:"conj_grad.zr" Harness.Zr_cg.conj_grad_src in
  let ep = compile ~traced ~backend:`Compiled ~name:"ep_main.zr" Harness.Zr_ep.src in
  let is_c = compile ~traced ~backend:`Compiled ~name:"is_rank.zr" Harness.Zr_is.src in
  let is_b = compile ~traced ~backend:`Bytecode ~name:"is_rank.zr" Harness.Zr_is.src in
  Array.of_list
    (gen @ [ cg_item cg; ep_item ep; is_item is_c `Compiled; is_item is_b `Bytecode ])

let kernel_inputs_digest ~seed =
  let gen =
    List.concat_map
      (fun (kind, (k : Gen.kernel_src), cases) ->
        List.concat_map
          (fun sched ->
            List.concat_map
              (fun tier ->
                List.map
                  (fun (size, (c : Gen.kernel_case)) ->
                    ( Printf.sprintf "%s/%s/%s/%s" (Gen.kind_name kind)
                        (Gen.size_name size) (Gen.sched_name sched) (tier_name tier),
                      digest (k.Gen.src sched ^ c.Gen.data_digest),
                      c.Gen.work ))
                  cases)
              tiers)
          scheds)
      (kernel_inputs seed)
  in
  gen
  @ List.map
      (fun (id, src, work) -> (id, digest src, work))
      [ ("npb/cg/S/bytecode", Harness.Zr_cg.conj_grad_src, cg_work);
        ("npb/ep/S/compiled", Harness.Zr_ep.src, ep_work);
        ("npb/is/S/compiled", Harness.Zr_is.src, is_work);
        ("npb/is/S/bytecode", Harness.Zr_is.src, is_work) ]

let kernels =
  { name = "kernels"; yardstick = Yardstick.Pair;
    inputs = kernel_inputs_digest; setup = kernel_setup;
    speedup =
      (fun items ->
        Array.to_list items
        |> List.filter (fun i ->
               String.length i.id > 4 && String.sub i.id 0 4 <> "npb/"
               && not (String.length i.id > 9 && String.sub i.id 0 9 = "histogram")));
    has_checker = false; tail_rounds = 7;
    fresh_heap = false; shuffle = true }

(* ----------------------------- tasks ------------------------------- *)

let task_progs seed =
  let st = Gen.rng ~seed ~salt:2 in
  [ Gen.task_fib st 14; Gen.task_fib st 17;
    Gen.task_tree st 4096 16; Gen.task_tree st 32768 64;
    Gen.task_loop st 16384 64; Gen.task_loop st 131072 1024;
    Gen.task_sections st 32768; Gen.task_sections st 262144 ]

let task_setup ~seed ~traced =
  List.map
    (fun (tp : Gen.task_prog) ->
      let prog = compile ~traced ~backend:`Compiled ~name:(tp.Gen.tname ^ ".zr") tp.Gen.tsrc in
      let go traced () =
        let args = tp.Gen.targs () in
        fun () ->
          let ret = call ~traced prog tp.Gen.entry args in
          fun () -> judged tp.Gen.texpect (tp.Gen.tresult args ret)
      in
      ignore (run_staged (go false));
      { id = tp.Gen.tname; work = tp.Gen.twork; after_traced = ignore;
        run = go false; traced = go true })
    (task_progs seed)
  |> Array.of_list

let tasks =
  { name = "tasks"; yardstick = Yardstick.Pair;
    inputs =
      (fun ~seed ->
        List.map
          (fun (tp : Gen.task_prog) -> (tp.Gen.tname, tp.Gen.tdigest, tp.Gen.twork))
          (task_progs seed));
    setup = task_setup; speedup = Array.to_list; has_checker = false;
    tail_rounds = 24; fresh_heap = false; shuffle = true }

(* ----------------------------- check ------------------------------- *)

(* CI's race-id table: the race ids each fixture must report, and
   nothing else.  Fixtures not listed here are clean. *)
let ci_race_ids = function
  | "missing_reduction.zr" -> [ "race|s" ]
  | "shared_counter.zr" -> [ "race|counter" ]
  | "nowait_useafter.zr" -> [ "race|q" ]
  | "task_no_taskwait.zr" -> [ "race|r" ]
  | "siv_carried.zr" -> [ "race|a" ]
  | "sections_scalar.zr" -> [ "race|w" ]
  | "task_capture_loop.zr" -> [ "race|cap" ]
  | "hidden_handoff.zr" -> [ "race|data" ]
  (* the genuinely racing illegal transform twins *)
  | "collapse2_illegal.zr" -> [ "race|hits" ]
  | "interchange_colmajor_illegal.zr" | "tile_stencil_illegal.zr" -> [ "race|a" ]
  | _ -> []

(* The fixtures the checker finishes in milliseconds at the default
   configuration; the slow ones (big stencils, illegal transform twins)
   would turn every round into a single item. *)
let check_fixtures =
  [ "examples/zr/analyze/private_read_first.zr";
    "examples/zr/analyze/sections_scalar.zr";
    "examples/zr/analyze/siv_carried.zr";
    "examples/zr/analyze/task_capture_loop.zr";
    "examples/zr/analyze/taskloop_disjoint.zr";
    "examples/zr/clean/atomic_counter.zr";
    "examples/zr/clean/nowait_barrier.zr";
    "examples/zr/clean/reduction.zr";
    "examples/zr/clean/sections_atomic.zr";
    "examples/zr/clean/task_capture_fp.zr";
    "examples/zr/clean/task_taskwait.zr";
    "examples/zr/dpor/hidden_handoff.zr";
    "examples/zr/dpor/hidden_handoff_clean.zr";
    "examples/zr/racy/missing_reduction.zr";
    "examples/zr/racy/nowait_useafter.zr";
    "examples/zr/racy/shared_counter.zr";
    "examples/zr/racy/task_no_taskwait.zr";
    "examples/zr/transform/collapse2.zr" ]

(* Region arm: jacobi-shaped programs forking this many regions each.
   Three items share the top size so the tail percentile always falls
   among the many-region items. *)
let check_arm = [ 25; 50; 100; 200; 200; 200 ]

let check_config = { Check.default_config with Check.nthreads = 2 }

let arm_config =
  { check_config with
    Check.exploration = Check.Dpor { max_execs = 2; preempt_bound = 2 } }

let race_ids (r : Report.t) =
  List.filter_map
    (fun (f : Report.finding) ->
      if String.length f.Report.id >= 5 && String.sub f.Report.id 0 5 = "race|"
      then Some f.Report.id
      else None)
    r.Report.findings
  |> List.sort_uniq compare

let check_result ~expect_ids ~clean (e : Zigomp.Corpus.entry) =
  let r = e.Zigomp.Corpus.report in
  let ids = race_ids r in
  let complete =
    match r.Report.exploration with Some (Report.Complete _) -> true | _ -> false
  in
  { pass = ids = expect_ids && ((not clean) || r.Report.findings = []);
    final = complete;
    out =
      String.concat ","
        (List.map (fun (f : Report.finding) -> f.Report.id) r.Report.findings)
      ^ (match r.Report.exploration with
         | Some (Report.Complete { executions }) -> Printf.sprintf " COMPLETE %d" executions
         | Some (Report.Bounded { executions; _ }) -> Printf.sprintf " BOUNDED %d" executions
         | _ -> " -") }

let check_sources seed =
  let st = Gen.rng ~seed ~salt:3 in
  let fixtures =
    List.map
      (fun path ->
        let b = Filename.basename path in
        let clean = ci_race_ids b = [] && b <> "private_read_first.zr" in
        (path, read_file path, ci_race_ids b, clean, 0, check_config))
      check_fixtures
  in
  let arm =
    List.mapi
      (fun i r ->
        (Printf.sprintf "jacobi_%d_%d" r i, Gen.jacobi st r, [], true, r, arm_config))
      check_arm
  in
  fixtures @ arm

let check_setup ~seed ~traced =
  let sources = check_sources seed in
  let items =
    List.map
      (fun (name, src, expect_ids, clean, regions, config) ->
        (* set-up: the checker's front half, preprocess and load *)
        let pre =
          if traced then Layers.preprocess ~name src
          else Preproc.Preprocess.run ~name src
        in
        ignore (Interp.load ~name ~preprocess:false pre);
        let go traced () () =
          let e =
            if traced then Layers.check ~config ~regions ~name src
            else
              Zigomp.Corpus.run_entry ~mode:Zigomp.Corpus.Mcheck ~config
                ~no_static:false ~name src
          in
          fun () -> check_result ~expect_ids ~clean e
        in
        (* the same program on the plain walker, for
           check.checked_over_walker *)
        let walker () =
          if regions > 0 then begin
            let p = Zigomp.compile ~backend:`Ast ~name src in
            ignore
              (Spans.span ~count:regions "interp.walker.run" (fun () ->
                   Zigomp.run_main p))
          end
        in
        { id = name; work = { Gen.trips = 0; regions }; after_traced = walker;
          run = go false; traced = go true })
      sources
  in
  (* warm-up: every fixture once through the whole checker (the
     region arm is left to the measured rounds) *)
  List.iter (fun i -> if i.work.Gen.regions = 0 then ignore (run_staged i.run)) items;
  Array.of_list items

let check =
  { name = "check"; yardstick = Yardstick.Mix;
    inputs =
      (fun ~seed ->
        List.map
          (fun (name, src, _, _, regions, _) ->
            (name, digest src, { Gen.trips = 0; regions }))
          (check_sources seed));
    setup = check_setup; speedup = (fun _ -> []); has_checker = true;
    tail_rounds = 8; fresh_heap = true; shuffle = false }

(* ---------------------------- analyze ------------------------------ *)

(* Static expectations: CI's analyze table (an id prefix the report
   must contain), clean for the clean programs, and for the remaining
   racy fixtures no static id outside the fixture's DPOR-observed set
   (static PROVEN is a subset of DPOR-found). *)
let analyze_expect b =
  match b with
  | "missing_reduction.zr" | "shared_counter.zr" | "nowait_useafter.zr"
  | "task_no_taskwait.zr" | "siv_carried.zr" | "sections_scalar.zr"
  | "task_capture_loop.zr" ->
      `Exact (ci_race_ids b)
  | "private_read_first.zr" -> `Prefix "scope|firstprivate|t@"
  | "hidden_handoff.zr" | "collapse2_illegal.zr"
  | "interchange_colmajor_illegal.zr" | "tile_stencil_illegal.zr" ->
      `Subset (ci_race_ids b)
  | _ -> `Exact []

let analyze_sources seed =
  let st = Gen.rng ~seed ~salt:4 in
  let fixtures =
    Zigomp.Corpus.discover "examples/zr" @ Zigomp.Corpus.discover "examples/tasking"
    |> List.map (fun p -> (p, read_file p, analyze_expect (Filename.basename p)))
  in
  let npb =
    List.map (fun (n, s) -> (n, s, `Exact [])) Zigomp.Corpus.kernel_sources
  in
  let mixed =
    List.init 8 (fun i ->
        let src, ids = Gen.mixed st ~racy:(i mod 2 = 0) in
        (Printf.sprintf "mixed_%d.zr" i, src, `Exact ids))
  in
  fixtures @ npb @ mixed

let analyze_result expect (r : Analyze.result) =
  let ids =
    List.map (fun (f : Report.finding) -> f.Report.id) r.Analyze.report.Report.findings
  in
  let pass =
    match expect with
    | `Exact want -> List.sort_uniq compare ids = want
    | `Prefix p ->
        List.exists
          (fun id -> String.length id >= String.length p && String.sub id 0 (String.length p) = p)
          ids
    | `Subset allowed -> List.for_all (fun id -> List.mem id allowed) ids
  in
  { pass; final = true;
    out =
      String.concat "," ids ^ " | "
      ^ String.concat "," (List.map (fun (f : Report.finding) -> f.Report.id) r.Analyze.may) }

let analyze_setup ~seed ~traced =
  register_hosts ();
  let items =
    List.map
      (fun (name, src, expect) ->
        if traced then Layers.frontend ~name src;
        let go traced () () =
          let r =
            if traced then begin
              ignore (Layers.compile ~name src);
              Layers.analyze ~name src
            end
            else begin
              ignore (Zigomp.compile ~name src);
              let e =
                Zigomp.Corpus.run_entry ~mode:Zigomp.Corpus.Manalyze
                  ~config:Check.default_config ~no_static:false ~name src
              in
              { Analyze.report = e.Zigomp.Corpus.report; may = e.Zigomp.Corpus.may;
                fixes = [] }
            end
          in
          fun () -> analyze_result expect r
        in
        { id = name; work = { Gen.trips = 0; regions = 0 }; after_traced = ignore;
          run = go false; traced = go true })
      (analyze_sources seed)
  in
  (* warm-up: every item once *)
  List.iter (fun i -> ignore (run_staged i.run)) items;
  Array.of_list items

let analyze =
  { name = "analyze"; yardstick = Yardstick.Mix;
    inputs =
      (fun ~seed ->
        List.map
          (fun (name, src, _) -> (name, digest src, { Gen.trips = 0; regions = 0 }))
          (analyze_sources seed));
    setup = analyze_setup; speedup = (fun _ -> []); has_checker = false;
    tail_rounds = 40; fresh_heap = false; shuffle = false }

let all = [ kernels; tasks; check; analyze ]
