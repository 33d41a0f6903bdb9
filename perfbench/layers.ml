(* The benchmark's calls into each layer, with spans.

   Each function here does what one public entry point does
   ([Zigomp.compile], [Analyze.run], [Corpus.run_entry ~mode:Mcheck]),
   but as the sequence of the lower layers' public calls, so a span can
   sit around each one.  The untraced run calls the entry points
   themselves; the traced run calls these, and main.ml checks that
   both give the same outputs. *)

module Report = Check.Report

let bytes s = String.length s

(* Replacement rounds taken by the preprocessor's fixpoints. *)
let preproc_rounds = ref 0
let preproc_sources = ref 0

(* [Preproc.Preprocess.run], one span per step. *)
let preprocess ~name src =
  let n = bytes src in
  let counter = ref 0 and task_counter = ref 0 in
  let step label f src =
    Spans.span ~count:n ("preproc." ^ label) (fun () ->
        Preproc.Preprocess.fixpoint
          (fun s ->
            match f s with
            | None -> None
            | Some s' -> incr preproc_rounds; Some s')
          src)
  in
  incr preproc_sources;
  List.fold_left
    (fun src (st : Preproc.Preprocess.step) ->
      match st with
      | Loop_transforms ->
          step "transform" (fun s -> Preproc.Transform.run ~name s) src
      | Split_combined ->
          step "split" (fun s -> Preproc.Sync.split_combined ~name s) src
      | Parallel_regions ->
          step "outline" (fun s -> Preproc.Outline.run ~name ~counter s) src
      | Worksharing_loops -> step "loops" (fun s -> Preproc.Loops.run ~name s) src
      | Tasking ->
          step "tasking"
            (fun s -> Preproc.Tasking.run ~name ~counter:task_counter s)
            src
      | Sync -> step "sync" (fun s -> Preproc.Sync.run_sync ~name s) src)
    src Preproc.Preprocess.steps

(* Tokenize and parse the original source on their own: instrument
   spans that split the frontend's cost, outside any item. *)
let frontend ~name src =
  let n = bytes src in
  ignore
    (Spans.span ~count:n "zr.tokenize" (fun () ->
         Zr.Tokenizer.tokenize (Zr.Source.of_string ~name src)));
  ignore (Spans.span ~count:n "zr.parse" (fun () -> Zr.Parser.parse_string ~name src))

(* [Zigomp.compile]: preprocess, load, stage. *)
let compile ?backend ~name src =
  let pre = preprocess ~name src in
  let prog =
    Spans.span ~count:(bytes src) "interp.load" (fun () ->
        Interp.load ~name ~preprocess:false pre)
  in
  Spans.span ~count:(bytes src) "interp.stage" (fun () ->
      Zigomp.stage ?backend prog)

let call_span (p : Zigomp.compiled) =
  match Zigomp.backend_of p with
  | `Compiled -> "interp.compiled.call"
  | `Bytecode -> "interp.bytecode.call"
  | `Ast -> "interp.walker.run"

let call p fname args =
  Spans.span (call_span p) (fun () -> Zigomp.call p fname args)

(* PROVEN and MAY findings reported by traced analyses, and the number
   of analyses, per span origin. *)
let analyzed : (Spans.origin, int * int * int) Hashtbl.t = Hashtbl.create 2

let analyze_counts o = try Hashtbl.find analyzed o with Not_found -> (0, 0, 0)

let tally_analysis (r : Analyze.result) =
  let o = snd !Spans.current_item in
  let p, m, n = analyze_counts o in
  let proven =
    List.length
      (List.filter
         (fun (f : Report.finding) -> f.Report.verdict = Some Report.Proven)
         r.Analyze.report.Report.findings)
  in
  Hashtbl.replace analyzed o (p + proven, m + List.length r.Analyze.may, n + 1);
  r

(* [Analyze.run]: parse, dataflow, autoscope, transform assessment. *)
let analyze ~name src : Analyze.result =
  tally_analysis @@
  let n = bytes src in
  match Spans.span ~count:n "zr.parse" (fun () -> Zr.Parser.parse_string ~name src) with
  | exception Zr.Source.Error _ -> Analyze.run ~name src
  | ast, spans ->
      let df = Spans.span ~count:n "analyze.dataflow" (fun () -> Analyze.Dataflow.run ast spans) in
      let out = Spans.span ~count:n "analyze.autoscope" (fun () -> Analyze.Autoscope.run df) in
      let refusals =
        Spans.span ~count:n "analyze.assess" (fun () ->
            Preproc.Transform.assess { Preproc.Synth.ast; spans })
      in
      let transform_may =
        List.map
          (fun (r : Preproc.Transform.refusal) ->
            Report.lint ~rule:"transform"
              ~detail:
                (Printf.sprintf "line %d: %s refused [%s]: %s" r.line r.clause
                   (match r.verdict with
                    | Preproc.Transform.Proven -> "PROVEN"
                    | Preproc.Transform.May -> "MAY")
                   r.reason)
              ())
          refusals
      in
      { Analyze.report =
          Report.make ~backend:"analyze" ~source:ast.Zr.Ast.source ~name
            ~schedules:0 out.Analyze.Autoscope.findings;
        may =
          List.sort compare (Analyze.dedup_by_line out.Analyze.Autoscope.may)
          @ transform_may;
        fixes = out.Analyze.Autoscope.fixes }

(* [Corpus.run_entry ~mode:Mcheck ~no_static:false]: lints, the
   preprocessor, DPOR exploration (one span per execution, with the
   per-execution program load as a child), then the static analyser
   and the merge.  [regions] is recorded on every execution span. *)
let check ~(config : Check.config) ~regions ~name src =
  let fallback () =
    Zigomp.Corpus.run_entry ~mode:Zigomp.Corpus.Mcheck ~config ~no_static:false
      ~name src
  in
  match config.Check.exploration with
  | Check.Sampled -> fallback ()
  | Check.Dpor { max_execs; preempt_bound } -> (
      match
        let lints =
          if config.Check.lint then
            Spans.span "check.lint" (fun () -> Check.Lint.run ~name src)
          else []
        in
        (lints, preprocess ~name src)
      with
      | exception Zr.Source.Error _ -> fallback ()
      | lints, pre ->
          let load () =
            Spans.span ~count:(bytes src) "interp.load" (fun () ->
                Interp.load ~name ~preprocess:false pre)
          in
          if not (Hashtbl.mem (load ()).Interp.fns "main") then fallback ()
          else
          let run prog = ignore (Interp.run_main prog) in
          let run_one ex =
            Spans.span ~count:regions "check.exec" (fun () ->
                fst
                  (Check.Sched.run_controlled ~name ~load ~run
                     ~nthreads:config.Check.nthreads ~ex ()))
          in
          let findings, stats =
            Spans.span ~count:regions "check.explore" (fun () ->
                Check.Dpor.explore ~max_execs ~preempt_bound ~run_one)
          in
          let executions = stats.Check.Dpor.executions in
          let exploration =
            match stats.Check.Dpor.verdict with
            | Check.Dpor.Complete -> Report.Complete { executions }
            | Check.Dpor.Bounded { within_bound_left } ->
                Report.Bounded { executions; preempt_bound; within_bound_left }
          in
          let dynamic =
            Report.make ~name ~schedules:executions ~exploration
              (lints @ findings)
          in
          let static =
            Spans.span "check.static" (fun () -> (Analyze.run ~name src).Analyze.report)
          in
          { Zigomp.Corpus.path = name;
            report = Report.merge ~static ~dynamic;
            may = [] })
