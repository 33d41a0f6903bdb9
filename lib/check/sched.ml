(** Cooperative checker runtime: the third execution backend.

    Runs a preprocessed Zr program on deterministic virtual threads
    ({!Sim.Des}) instead of real domains, intercepting the whole
    [.omp.internal] surface ({!Interp.Builtins.interceptor}) and every
    shared-reachable memory access ({!Interp.Rt.tracer}).  Each virtual
    thread carries a vector clock; forks, joins, barriers, criticals,
    atomics and reduction merges establish the happens-before edges
    documented in DESIGN.md, and every traced access is fed to the
    shadow memory ({!Race}) under that ordering.

    A thread's clock index is not its virtual-thread id: a finished
    thread's index is recycled by the thread that joins its final clock
    (DESIGN.md, "Clock-index recycling"), so clock width follows the
    threads live at once.

    Schedule exploration works by charging simulated time to accesses:
    the DES scheduler always runs the runnable thread with the smallest
    clock, so varying the per-access cost varies the interleaving while
    keeping every run fully deterministic.  [Uniform] advances every
    thread in lockstep (maximal fine-grained interleaving); [Skewed k]
    gives team members rotated relative speeds so each sync point is
    reached in a different order; [Seeded s] draws costs from a seeded
    PRNG. *)

module Des = Sim.Des
module V = Interp.Value
module Rt = Interp.Rt
module B = Interp.Builtins

type mode = Uniform | Skewed of int | Seeded of int

let mode_name = function
  | Uniform -> "uniform"
  | Skewed k -> Printf.sprintf "skewed:%d" k
  | Seeded s -> Printf.sprintf "seeded:%d" s

(* ----------------------------- state ------------------------------ *)

type team = {
  uid : int;                    (* stable creation-order id, for DPOR *)
  size : int;
  mutable bar_vc : Vc.t;        (* join of clocks of barrier arrivals *)
  mutable bar_blocked : (tstate * Des.wake) list;
  mutable bar_max : float;      (* latest arrival time this episode *)
  mutable done_members : int;   (* members that left the region *)
  mutable diverged : bool;      (* divergence already reported *)
  dispatchers : (int, Omprt.Ws.Dispatch.t) Hashtbl.t;  (* by loop epoch *)
  single_claims : (int, unit) Hashtbl.t;               (* by single epoch *)
  (* deferred explicit tasks: barriers and the region end gate on
     [task_live] reaching zero; the final clocks of the tasks completed
     since the last barrier are kept so those gates establish the
     task-body → completion-point happens-before edges *)
  mutable task_live : int;
  mutable task_finals : Vc.t list;
  mutable task_spent : tstate list;  (* completed, for index reclaim *)
  mutable task_waiters : Des.wake list;
}

and frame = {
  team : team;
  tid : int;
  icvs : Omprt.Icv.t;           (* this implicit task's data environment *)
  mutable single_seen : int;    (* singles this thread has met *)
  mutable loop_epoch : int;     (* dispatch loops this thread has met *)
  mutable task_children : tstate option ref list;
      (* direct child tasks: the cell fills with the finished child on
         completion; [taskwait] drains, joins and reclaims them *)
}

and tstate = {
  gid : int;                    (* virtual-thread id: DPOR's identity *)
  idx : int;                    (* clock index, recycled at joins *)
  vc : Vc.t;
  up : (tstate * int) option;   (* the thread that started this one, and
                                   the reclaim count at that moment *)
  mutable free : (int * int) list;
      (* (reclaim stamp, index) of the indices whose last holders this
         thread has joined *)
  mutable reclaimed : bool;     (* finished, and its index handed on *)
  base_icvs : Omprt.Icv.t;      (* the frame outside any region *)
  mutable frames : frame list;  (* innermost region first *)
}

type session = {
  des : Des.t;
  nthreads : int;               (* configured default team size *)
  initial_icvs : Omprt.Icv.t;   (* virtual thread 0's starting frame *)
  mode : mode;
  ctl : Dpor.exec option;       (* DPOR-controlled run, else sampled *)
  mutable nteams : int;         (* teams forked so far, for team uids *)
  mutable nidx : int;           (* clock indices allocated so far *)
  mutable reclaims : int;       (* reclaims so far: the stamp clock *)
  retired : (int, int) Hashtbl.t;  (* index -> last holder's last epoch *)
  rng : Random.State.t option;
  race : Race.t;
  mutable findings : Report.finding list;
  threads : (int, tstate) Hashtbl.t;         (* running vthread id -> state *)
  locks : (string, Des.Smutex.t * Vc.t) Hashtbl.t;  (* criticals *)
  atomic_lock : Des.Smutex.t * Vc.t;         (* __kmpc_atomic_begin/end *)
  mutable af : (Omprt.Atomics.Float.t * Vc.t) list;
  mutable ai : (Omprt.Atomics.Int.t * Vc.t) list;
  cp_slots : (int * int, V.t * Vc.t) Hashtbl.t;
      (* copyprivate broadcasts by (team uid, single epoch): value and
         the claimer's clock at the put *)
  mutable orphan_cp : V.t option;  (* copyprivate outside any region *)
  output : Buffer.t;            (* captured [print] output *)
}

let cur_tstate sess =
  match sess.des.Des.current with
  | Some vt -> Hashtbl.find_opt sess.threads vt.Des.id
  | None -> None

(* (team size, tid, frame) for the current thread; a thread outside any
   region is an orphan team of one. *)
let ctx ts =
  match ts.frames with
  | f :: _ -> (f.team.size, f.tid, Some f)
  | [] -> (1, 0, None)

(* The current task's ICV frame — mirrors {!Omprt.Team.icvs}, so the
   checker's serialisation/capping decisions agree with execution. *)
let icvs_of ts =
  match ts.frames with f :: _ -> f.icvs | [] -> ts.base_icvs

(* Enclosing active regions (teams of more than one thread) — the value
   [max_active_levels] is checked against, as in {!Omprt.Team.fork}. *)
let active_levels ts =
  List.length (List.filter (fun f -> f.team.size > 1) ts.frames)

(* Threads this contention-group chain has committed so far: 1 for the
   initial thread plus (size - 1) per enclosing team. *)
let group_threads ts =
  List.fold_left (fun acc f -> acc + (f.team.size - 1)) 1 ts.frames

(* --------------------------- clock indices ------------------------- *)

(* Remove the first index of [pool] reclaimed at stamp [upto] or
   earlier. *)
let rec pick upto = function
  | [] -> None
  | (st, i) :: rest when st <= upto -> Some (i, rest)
  | e :: rest -> Option.map (fun (i, rest) -> (i, e :: rest)) (pick upto rest)

(* An index for a thread [owner] is about to start.  The new thread's
   clock is a copy of [owner]'s, so any index [owner] has reclaimed
   will do; so will one that [owner]'s starter had reclaimed before it
   started [owner], and so on up the chain.  Failing those, a fresh
   one.  The new thread's first tick moves past the previous holder's
   last epoch. *)
let take_index sess owner =
  let rec go ts upto =
    match pick upto ts.free with
    | Some (i, rest) ->
        ts.free <- rest;
        i
    | None -> (
        match ts.up with
        | Some (starter, born) -> go starter born
        | None ->
            let i = sess.nidx in
            sess.nidx <- i + 1;
            i)
  in
  go owner max_int

(* The index, clock and borrowing link of a thread [owner] starts. *)
let seed sess owner =
  let idx = take_index sess owner in
  (* the recycling invariant: [owner] covers the previous holder *)
  assert (Vc.covers owner.vc ~idx
            ~clk:(Option.value ~default:0 (Hashtbl.find_opt sess.retired idx)));
  (idx, Vc.copy owner.vc, Some (owner, sess.reclaims))

(* Make the running virtual thread a checked thread from [seed]. *)
let start_thread sess (idx, vc, up) ~base_icvs =
  let ts =
    { gid = (Des.self sess.des).Des.id; idx; vc; up; free = [];
      reclaimed = false; base_icvs; frames = [] }
  in
  Vc.tick ts.vc idx;
  Hashtbl.replace sess.threads ts.gid ts;
  ts

(* [owner] joins [fin]'s final clock, so the finished thread's index,
   with every index it had reclaimed, becomes [owner]'s, stamped now —
   at most once: the region end skips a task a [taskwait] reclaimed. *)
let reclaim sess owner fin =
  Vc.join owner.vc fin.vc;
  if not fin.reclaimed then begin
    fin.reclaimed <- true;
    Hashtbl.replace sess.retired fin.idx (Vc.get fin.vc fin.idx);
    sess.reclaims <- sess.reclaims + 1;
    let st = sess.reclaims in
    owner.free <-
      List.fold_left (fun acc (_, i) -> (st, i) :: acc) owner.free
        ((st, fin.idx) :: fin.free);
    fin.free <- []
  end

(* ------------------------ schedule perturbation ------------------- *)

(* Charge simulated time to the current access; the DES min-clock rule
   turns the cost profile into an interleaving. *)
let pause sess ts =
  if ts.frames <> [] then
    let dt =
      match sess.mode with
      | Uniform -> 1.0
      | Skewed k ->
          let tid = match ts.frames with f :: _ -> f.tid | [] -> 0 in
          1.0 +. float_of_int ((tid + k) mod 5)
      | Seeded _ ->
          (match sess.rng with
           | Some st -> 0.5 +. Random.State.float st 2.0
           | None -> 1.0)
    in
    Des.advance sess.des dt

(* Report a visible operation to the DPOR engine (controlled runs
   only); must run after the [pause] of the same operation, so the
   event lands on the decision that resumed this thread. *)
let note sess ts ~obj ~kind =
  match sess.ctl with
  | Some ex -> Dpor.record ex ~gid:ts.gid ~obj ~kind
  | None -> ()

let controlled sess = sess.ctl <> None

(* --------------------------- the tracer --------------------------- *)

let on_trace sess ~rw acc ~off ~hint =
  (* Consume the compound-assignment note before any reschedule, so it
     cannot leak to another thread's access. *)
  let op = !Rt.pending_op in
  Rt.pending_op := None;
  match cur_tstate sess with
  | None -> ()
  | Some ts ->
      pause sess ts;
      Race.access sess.race ~rw acc ~off ~hint ~gid:ts.gid ~idx:ts.idx
        ~vc:ts.vc ~op

(* --------------------------- barriers ----------------------------- *)

(* Task-completion happens-before: a barrier, which waits out the team's
   outstanding explicit tasks, joins the final clocks of those completed
   since the last barrier into its rendezvous clock — which every
   released member adopts — and forgets them.  The region end joins
   every task of the region as it reclaims their indices. *)
let fold_task_finals team =
  List.iter (Vc.join team.bar_vc) team.task_finals;
  team.task_finals <- []

let rec wait_team_tasks sess team =
  if team.task_live > 0 then begin
    Des.suspend sess.des (fun wake ->
        team.task_waiters <- wake :: team.task_waiters);
    wait_team_tasks sess team
  end

let release_barrier sess team =
  fold_task_finals team;
  let blocked = List.rev team.bar_blocked in
  let bvc = team.bar_vc in
  let at = team.bar_max in
  team.bar_blocked <- [];
  team.bar_vc <- Vc.create ();
  team.bar_max <- 0.;
  List.iter
    (fun (ts, wake) ->
      Vc.join ts.vc bvc;
      Vc.tick ts.vc ts.idx;
      wake ~at)
    blocked;
  ignore sess

let note_divergence sess team =
  if not team.diverged then begin
    team.diverged <- true;
    sess.findings <-
      Report.divergence
        ~detail:
          (Printf.sprintf
             "%d of %d team members left the parallel region while the \
              rest wait at a barrier (unmatched barrier counts)"
             team.done_members team.size)
      :: sess.findings
  end

let barrier sess ts =
  match ts.frames with
  | [] -> Vc.tick ts.vc ts.idx
  | { team; _ } :: _ ->
      if team.size <= 1 then Vc.tick ts.vc ts.idx
      else begin
        Vc.join team.bar_vc ts.vc;
        let now = Des.now sess.des in
        if now > team.bar_max then team.bar_max <- now;
        let arrived = List.length team.bar_blocked + 1 in
        if arrived + team.done_members >= team.size && team.task_live = 0
        then begin
          if team.done_members > 0 then note_divergence sess team;
          (* self: adopt the rendezvous clock before the state resets *)
          fold_task_finals team;
          Vc.join ts.vc team.bar_vc;
          Vc.tick ts.vc ts.idx;
          release_barrier sess team
        end
        else
          (* not full yet — or full but outstanding explicit tasks keep
             the barrier closed; the last task completion releases it *)
          Des.suspend sess.des (fun wake ->
              team.bar_blocked <- (ts, wake) :: team.bar_blocked)
      end

(* A member returning from the region body can strand teammates at a
   barrier that now can never fill: report the divergence and release
   them rather than deadlocking the whole check. *)
let member_done sess (fr : frame) =
  let team = fr.team in
  team.done_members <- team.done_members + 1;
  if team.bar_blocked <> []
     && List.length team.bar_blocked + team.done_members >= team.size
  then begin
    note_divergence sess team;
    release_barrier sess team
  end

(* --------------------------- fork/join ---------------------------- *)

(* [requested] is the resolved team-size request (clause value or the
   encountering task's [nthreads-var]); the encountering task's frame is
   then enforced exactly as {!Omprt.Team.fork} does — serialisation
   beyond [max_active_levels], then the [thread_limit] contention-group
   cap — so the checker explores the same team shapes execution uses. *)
let fork sess parent ~call ~f ~fp ~sh ~red ~requested =
  Vc.tick parent.vc parent.idx;
  let pframe = icvs_of parent in
  let serialised =
    requested > 1 && active_levels parent >= pframe.Omprt.Icv.max_active_levels
  in
  let nth =
    if serialised then 1
    else
      min requested
        (max 1 (pframe.Omprt.Icv.thread_limit - group_threads parent + 1))
  in
  let team =
    { uid = sess.nteams;
      size = nth; bar_vc = Vc.create (); bar_blocked = []; bar_max = 0.;
      done_members = 0; diverged = false;
      dispatchers = Hashtbl.create 8; single_claims = Hashtbl.create 8;
      task_live = 0; task_finals = []; task_spent = []; task_waiters = [] }
  in
  sess.nteams <- sess.nteams + 1;
  let remaining = ref (nth - 1) in
  let parent_wake : Des.wake option ref = ref None in
  let children : tstate list ref = ref [] in
  for tid = 1 to nth - 1 do
    let seed = seed sess parent in
    Des.spawn sess.des (fun () ->
        let child =
          start_thread sess seed ~base_icvs:(Omprt.Icv.copy pframe)
        in
        let fr =
          { team; tid; icvs = Omprt.Icv.copy pframe;
            single_seen = 0; loop_epoch = 0; task_children = [] }
        in
        child.frames <- fr :: child.frames;
        ignore (call f [ fp; sh; red ]);
        child.frames <- List.tl child.frames;
        member_done sess fr;
        Hashtbl.remove sess.threads child.gid;
        children := child :: !children;
        decr remaining;
        if !remaining = 0 then
          match !parent_wake with
          | Some wake -> wake ~at:(Des.now sess.des)
          | None -> ())
  done;
  (* the children received a copy of the parent's clock: tick so the
     parent's own region-body events are distinguishable from the fork
     point (else a child's start would wrongly cover them) *)
  Vc.tick parent.vc parent.idx;
  (* the encountering thread is thread 0 of the team, run in place so
     threadprivate state persists across regions as OpenMP requires *)
  let fr0 =
    { team; tid = 0; icvs = Omprt.Icv.copy pframe;
      single_seen = 0; loop_epoch = 0; task_children = [] }
  in
  parent.frames <- fr0 :: parent.frames;
  ignore (call f [ fp; sh; red ]);
  parent.frames <- List.tl parent.frames;
  member_done sess fr0;
  if !remaining > 0 then
    Des.suspend sess.des (fun wake -> parent_wake := Some wake);
  (* region end: outstanding explicit tasks complete before the region
     is left (the runtime has every member drain its deque; here the
     encountering thread stands in for the team) *)
  wait_team_tasks sess team;
  (* join: the parent happens-after every child's and every task's last
     event, and so takes over their indices *)
  List.iter (reclaim sess parent) !children;
  List.iter (reclaim sess parent) team.task_spent;
  Vc.tick parent.vc parent.idx

(* --------------------------- locks -------------------------------- *)

let lock_of sess name =
  match Hashtbl.find_opt sess.locks name with
  | Some lv -> lv
  | None ->
      let lv = (Des.Smutex.create sess.des, Vc.create ()) in
      Hashtbl.add sess.locks name lv;
      lv

let acquire sess ts ~lname (m, lvc) =
  pause sess ts;
  note sess ts ~obj:(Dpor.Olock lname) ~kind:Dpor.Kacquire;
  Des.Smutex.lock m;
  Vc.join ts.vc lvc

let release _sess ts (m, lvc) =
  Vc.join lvc ts.vc;
  Vc.tick ts.vc ts.idx;
  Des.Smutex.unlock m

(* Atomic reduction cells synchronise like a per-cell lock: loads
   acquire, combines acquire and release. *)
let cell_vc table a ~add = Race.find_or_add table a ~fresh:Vc.create ~add
let af_vc sess a = cell_vc sess.af a ~add:(fun b -> sess.af <- b :: sess.af)
let ai_vc sess a = cell_vc sess.ai a ~add:(fun b -> sess.ai <- b :: sess.ai)

(* A load or combine on an atomic reduction cell [cvc]: a visible
   operation (a load only under DPOR), then the cell's synchronisation. *)
let atomic_op sess ts ~obj cvc ~combine =
  if combine || controlled sess then begin
    pause sess ts;
    note sess ts ~obj ~kind:(if combine then Dpor.Kcombine else Dpor.Kload)
  end;
  Vc.join ts.vc cvc;
  if combine then begin
    Vc.join cvc ts.vc;
    Vc.tick ts.vc ts.idx
  end;
  None

(* ------------------------ builtin interception -------------------- *)

let is_combine fname =
  String.length fname > 21
  && String.sub fname 0 21 = "__omp_atomic_combine_"

let inclusive_hi ~step ~incl ub = if incl = 1 then
    (if step > 0 then ub + 1 else ub - 1)
  else ub

let on_builtin sess ~call fname args : V.t option =
  match cur_tstate sess with
  | None -> None
  | Some ts ->
      let it = V.to_int in
      (match fname, args with
       | "__kmpc_fork_call", [ V.VFun f; fp; sh; red; nt ] ->
           let requested =
             match it nt with
             | 0 -> (icvs_of ts).Omprt.Icv.nthreads
             | n -> max 1 n
           in
           fork sess ts ~call ~f ~fp ~sh ~red ~requested;
           Some V.VUnit
       | "__kmpc_barrier", [] ->
           barrier sess ts;
           Some V.VUnit
       | "__kmpc_for_static_init", [ lb; ub; step; incl ] ->
           let lo = it lb and step = it step in
           let hi = inclusive_hi ~step ~incl:(it incl) (it ub) in
           let nth, tid, _ = ctx ts in
           let trips = Omprt.Ws.trip_count ~lo ~hi ~step () in
           (match Omprt.Ws.static_block ~tid ~nthreads:nth ~trips with
            | Some (b, e) ->
                Some
                  (V.VStruct
                     [ ("has", V.VBool true);
                       ("lower", V.VInt (lo + (b * step)));
                       ("upper", V.VInt (lo + ((e - 1) * step))) ])
            | None ->
                Some
                  (V.VStruct
                     [ ("has", V.VBool false); ("lower", V.VInt 0);
                       ("upper", V.VInt 0) ]))
       | "__kmpc_for_static_fini", [] -> Some V.VUnit
       | "__kmpc_static_chunked_init", [ lb; ub; step; chunk; incl ] ->
           let lo = it lb and step = it step and chunk = max 1 (it chunk) in
           let hi = inclusive_hi ~step ~incl:(it incl) (it ub) in
           let nth, tid, _ = ctx ts in
           let trips = Omprt.Ws.trip_count ~lo ~hi ~step () in
           let chunks =
             List.map
               (fun (b, e) -> (lo + (b * step), lo + ((e - 1) * step)))
               (Omprt.Ws.static_chunks ~tid ~nthreads:nth ~trips ~chunk)
           in
           Some (V.VDispatch (V.Chunked (ref chunks)))
       | ( ("__kmpc_dispatch_init_dynamic" | "__kmpc_dispatch_init_guided"
           | "__kmpc_dispatch_init_runtime"),
           [ lb; ub; step; chunk; incl ] ) ->
           let lo = it lb and step = it step and chunk = max 1 (it chunk) in
           let hi = inclusive_hi ~step ~incl:(it incl) (it ub) in
           let sched =
             match fname with
             | "__kmpc_dispatch_init_dynamic" -> Omp_model.Sched.Dynamic chunk
             | "__kmpc_dispatch_init_guided" -> Omp_model.Sched.Guided chunk
             | _ -> Omp_model.Sched.Runtime
           in
           let nth, _, fro = ctx ts in
           let trips = Omprt.Ws.trip_count ~lo ~hi ~step () in
           let d =
             match fro with
             | None ->
                 let kind, chunk = Omprt.Kmpc.dispatch_kind trips 1 sched in
                 Omprt.Ws.Dispatch.create ~kind ~trips ~chunk ~nthreads:1
             | Some fr ->
                 let epoch = fr.loop_epoch in
                 fr.loop_epoch <- epoch + 1;
                 (match Hashtbl.find_opt fr.team.dispatchers epoch with
                  | Some d -> d
                  | None ->
                      let kind, chunk =
                        Omprt.Kmpc.dispatch_kind trips nth sched
                      in
                      let d =
                        Omprt.Ws.Dispatch.create ~kind ~trips ~chunk
                          ~nthreads:nth
                      in
                      Hashtbl.add fr.team.dispatchers epoch d;
                      d)
           in
           Some
             (V.VDispatch
                (V.Shared
                   { Omprt.Kmpc.d; lo; step; home = None; drained = false }))
       | "__kmpc_dispatch_next", [ V.VDispatch disp ] ->
           (* perturb the claim order, then use the shared engine *)
           pause sess ts;
           (match disp with
            | V.Shared { Omprt.Kmpc.d; _ } ->
                note sess ts ~obj:(Dpor.Odispatch d) ~kind:Dpor.Kacquire
            | _ -> ());
           None
       | "__kmpc_critical", [ V.VStr name ] ->
           acquire sess ts ~lname:name (lock_of sess name);
           Some V.VUnit
       | "__kmpc_end_critical", [ V.VStr name ] ->
           release sess ts (lock_of sess name);
           Some V.VUnit
       | "__kmpc_atomic_begin", [] ->
           acquire sess ts ~lname:"<atomic>" sess.atomic_lock;
           Some V.VUnit
       | "__kmpc_atomic_end", [] ->
           release sess ts sess.atomic_lock;
           Some V.VUnit
       | "__kmpc_single", [] ->
           (match ts.frames with
            | [] -> Some (V.VBool true)
            | fr :: _ ->
                let e = fr.single_seen in
                fr.single_seen <- e + 1;
                (* which thread claims a single is schedule-sensitive:
                   under DPOR the claim is a visible contended op *)
                if controlled sess then begin
                  pause sess ts;
                  note sess ts ~obj:(Dpor.Osingle (fr.team.uid, e))
                    ~kind:Dpor.Kacquire
                end;
                if Hashtbl.mem fr.team.single_claims e then
                  Some (V.VBool false)
                else begin
                  Hashtbl.add fr.team.single_claims e ();
                  Some (V.VBool true)
                end)
       | "__kmpc_end_single", [] -> Some V.VUnit
       | "__kmpc_omp_task", [ V.VFun f; fp; sh ] ->
           (match ts.frames with
            | fr :: _ when fr.team.size > 1 ->
                let team = fr.team in
                (* creation is a visible scheduling point, and the task
                   body happens-after it: the child vthread starts from
                   a copy of the creator's clock *)
                pause sess ts;
                Vc.tick ts.vc ts.idx;
                let seed = seed sess ts in
                let cell = ref None in
                fr.task_children <- cell :: fr.task_children;
                team.task_live <- team.task_live + 1;
                let ticvs = Omprt.Icv.copy fr.icvs in
                Des.spawn sess.des (fun () ->
                    let child = start_thread sess seed ~base_icvs:ticvs in
                    let cfr =
                      { team; tid = fr.tid; icvs = ticvs;
                        single_seen = 0; loop_epoch = 0;
                        task_children = [] }
                    in
                    child.frames <- [ cfr ];
                    ignore (call f [ fp; sh ]);
                    (* completion: fill the creator's child cell,
                       publish the final clock, and reopen any gate
                       this was the last outstanding task of *)
                    Hashtbl.remove sess.threads child.gid;
                    cell := Some child;
                    team.task_live <- team.task_live - 1;
                    team.task_finals <- child.vc :: team.task_finals;
                    team.task_spent <- child :: team.task_spent;
                    let at = Des.now sess.des in
                    if at > team.bar_max then team.bar_max <- at;
                    let ws = team.task_waiters in
                    team.task_waiters <- [];
                    List.iter (fun wake -> wake ~at) ws;
                    if team.task_live = 0
                       && team.bar_blocked <> []
                       && List.length team.bar_blocked + team.done_members
                          >= team.size
                    then release_barrier sess team);
                (* separate the creator's later events from the spawn *)
                Vc.tick ts.vc ts.idx
            | fr :: _ ->
                (* serialised team: undeferred, in its own ICV frame *)
                let cfr =
                  { team = fr.team; tid = fr.tid;
                    icvs = Omprt.Icv.copy fr.icvs;
                    single_seen = fr.single_seen;
                    loop_epoch = fr.loop_epoch; task_children = [] }
                in
                ts.frames <- cfr :: ts.frames;
                Fun.protect
                  ~finally:(fun () -> ts.frames <- List.tl ts.frames)
                  (fun () -> ignore (call f [ fp; sh ]))
            | [] -> ignore (call f [ fp; sh ]));
           Some V.VUnit
       | "__kmpc_omp_taskwait", [] ->
           (match ts.frames with
            | fr :: _ ->
                pause sess ts;
                let rec wait () =
                  if List.for_all (fun c -> !c <> None) fr.task_children
                  then begin
                    (* child bodies happen-before taskwait return, and
                       their indices become this thread's *)
                    List.iter
                      (fun c -> Option.iter (reclaim sess ts) !c)
                      fr.task_children;
                    fr.task_children <- [];
                    Vc.tick ts.vc ts.idx
                  end
                  else begin
                    Des.suspend sess.des (fun wake ->
                        fr.team.task_waiters <-
                          wake :: fr.team.task_waiters);
                    wait ()
                  end
                in
                wait ()
            | [] -> Vc.tick ts.vc ts.idx);
           Some V.VUnit
       | "__kmpc_copyprivate_put", [ v ] ->
           (match ts.frames with
            | fr :: _ ->
                Hashtbl.replace sess.cp_slots
                  (fr.team.uid, fr.single_seen - 1)
                  (v, Vc.copy ts.vc)
            | [] -> sess.orphan_cp <- Some v);
           Some V.VUnit
       | "__kmpc_copyprivate_get", [] ->
           let missing () =
             raise
               (V.Runtime_error
                  "__kmpc_copyprivate_get: no pending broadcast")
           in
           (match ts.frames with
            | fr :: _ ->
                (match
                   Hashtbl.find_opt sess.cp_slots
                     (fr.team.uid, fr.single_seen - 1)
                 with
                 | Some (v, pvc) ->
                     (* broadcast → consumers happens-before edge *)
                     Vc.join ts.vc pvc;
                     Some v
                 | None -> missing ())
            | [] ->
                (match sess.orphan_cp with
                 | Some v -> Some v
                 | None -> missing ()))
       | "__omp_get_thread_num", [] ->
           let _, tid, _ = ctx ts in
           Some (V.VInt tid)
       | "__omp_atomic_load", [ V.VAtomicF a ] ->
           atomic_op sess ts ~obj:(Dpor.Oatomf a) (af_vc sess a) ~combine:false
       | "__omp_atomic_load", [ V.VAtomicI a ] ->
           atomic_op sess ts ~obj:(Dpor.Oatomi a) (ai_vc sess a) ~combine:false
       | _, V.VAtomicF a :: _ when is_combine fname ->
           atomic_op sess ts ~obj:(Dpor.Oatomf a) (af_vc sess a) ~combine:true
       | _, V.VAtomicI a :: _ when is_combine fname ->
           atomic_op sess ts ~obj:(Dpor.Oatomi a) (ai_vc sess a) ~combine:true
       | "print", [ v ] ->
           Buffer.add_string sess.output (V.to_string v);
           Buffer.add_char sess.output '\n';
           Some V.VUnit
       | _ -> None)

let on_omp sess meth args : V.t option =
  match cur_tstate sess with
  | None -> None
  | Some ts ->
      let nth, tid, _ = ctx ts in
      (match meth, args with
       | "get_thread_num", [] -> Some (V.VInt tid)
       | "get_num_threads", [] -> Some (V.VInt nth)
       | "get_max_threads", [] ->
           Some (V.VInt (icvs_of ts).Omprt.Icv.nthreads)
       | "set_num_threads", [ v ] ->
           (* the calling task's frame only — never the session *)
           let n = V.to_int v in
           if n > 0 then (icvs_of ts).Omprt.Icv.nthreads <- n;
           Some V.VUnit
       | "get_num_procs", [] -> Some (V.VInt sess.nthreads)
       | "in_parallel", [] ->
           Some
             (V.VBool (List.exists (fun f -> f.team.size > 1) ts.frames))
       | "get_level", [] -> Some (V.VInt (List.length ts.frames))
       | "get_active_level", [] -> Some (V.VInt (active_levels ts))
       | "get_ancestor_thread_num", [ v ] ->
           let depth = List.length ts.frames in
           let lvl = V.to_int v in
           Some
             (V.VInt
                (if lvl < 0 || lvl > depth then -1
                 else if lvl = 0 then 0
                 else (List.nth ts.frames (depth - lvl)).tid))
       | "get_team_size", [ v ] ->
           let depth = List.length ts.frames in
           let lvl = V.to_int v in
           Some
             (V.VInt
                (if lvl < 0 || lvl > depth then -1
                 else if lvl = 0 then 1
                 else (List.nth ts.frames (depth - lvl)).team.size))
       | "get_thread_limit", [] ->
           Some (V.VInt (icvs_of ts).Omprt.Icv.thread_limit)
       | "get_max_active_levels", [] ->
           Some (V.VInt (icvs_of ts).Omprt.Icv.max_active_levels)
       | "set_max_active_levels", [ v ] ->
           let n = V.to_int v in
           if n >= 0 then
             (icvs_of ts).Omprt.Icv.max_active_levels <-
               min n Omprt.Icv.supported_active_levels;
           Some V.VUnit
       | "get_supported_active_levels", [] ->
           Some (V.VInt Omprt.Icv.supported_active_levels)
       | "get_dynamic", [] ->
           Some (V.VBool (icvs_of ts).Omprt.Icv.dynamic)
       | "set_dynamic", [ v ] ->
           (icvs_of ts).Omprt.Icv.dynamic <- V.to_bool v;
           Some V.VUnit
       | "get_wtime", [] -> Some (V.VFloat (Des.now sess.des *. 1e-9))
       | "get_wtick", [] -> Some (V.VFloat 1e-9)
       | _ -> None)

(* --------------------------- driving ------------------------------ *)

(* Run one execution: load the program with the hooks uninstalled (so
   global initialisation is untraced), install tracer + interceptor +
   virtual-thread TLS keying, execute [run prog] on virtual thread 0,
   and collect findings.  Hook installation is globally exclusive —
   the checker is single-domain by construction.  With [ctl] the DES
   runs in controlled mode: the DPOR execution decides every
   scheduling point instead of the min-clock rule. *)
let run_session ~name ~(load : unit -> Interp.program)
    ~(run : Interp.program -> unit) ~mode ~nthreads ~ctl () :
    Report.finding list * string =
  let prog = load () in
  let des = Des.create () in
  let src = Zr.Source.of_string ~name prog.Interp.preprocessed in
  (* The virtual initial task inherits the real process ICVs (so the
     checker agrees with execution on max_active_levels, thread_limit,
     schedule...), with the configured team size as its nthreads-var. *)
  let initial_icvs = Omprt.Icv.copy Omprt.Icv.global in
  initial_icvs.Omprt.Icv.nthreads <- nthreads;
  let sess =
    { des; nthreads; initial_icvs; mode; ctl; nteams = 0; nidx = 1;
      reclaims = 0; retired = Hashtbl.create 16;
      rng =
        (match mode with
         | Seeded s -> Some (Random.State.make [| s; 0x5eed |])
         | _ -> None);
      race = Race.create ~src ~ctl;
      findings = []; threads = Hashtbl.create 16;
      locks = Hashtbl.create 8;
      atomic_lock = (Des.Smutex.create des, Vc.create ());
      af = []; ai = []; cp_slots = Hashtbl.create 8; orphan_cp = None;
      output = Buffer.create 256 }
  in
  let label =
    match ctl with Some _ -> "dpor" | None -> mode_name mode
  in
  (match ctl with
   | Some ex -> Des.set_decide des (fun ids -> Dpor.decide ex ~enabled:ids)
   | None -> ());
  Rt.tracer := Some { Rt.trace = on_trace sess };
  Rt.escaped := [];
  B.interceptor :=
    Some { B.on_builtin = on_builtin sess; on_omp = on_omp sess };
  Rt.tls_key :=
    (fun () ->
      match sess.des.Des.current with
      | Some vt -> vt.Des.id
      | None -> 0);
  Fun.protect
    ~finally:(fun () ->
      Rt.tracer := None;
      Rt.escaped := [];
      B.interceptor := None;
      Rt.pending_op := None;
      Rt.tls_key := (fun () -> (Domain.self () :> int)))
    (fun () ->
      (* the initial thread holds clock index 0 *)
      Des.spawn des (fun () ->
          ignore
            (start_thread sess (0, Vc.create (), None)
               ~base_icvs:sess.initial_icvs);
          run prog);
      (try ignore (Des.run des) with
       | Des.Deadlock msg ->
           sess.findings <-
             Report.error ~detail:(label ^ ": " ^ msg) :: sess.findings
       | V.Runtime_error msg ->
           sess.findings <-
             Report.error ~detail:(label ^ ": " ^ msg) :: sess.findings
       | Zr.Source.Error msg ->
           sess.findings <-
             Report.error ~detail:(label ^ ": " ^ msg) :: sess.findings));
  Option.iter (fun ex -> Dpor.note_width ex sess.nidx) ctl;
  (Race.findings sess.race @ sess.findings, Buffer.contents sess.output)

(** Run one sampled schedule (the legacy 7-schedule mode). *)
let run_schedule ~name ~load ~run ~mode ~nthreads () =
  run_session ~name ~load ~run ~mode ~nthreads ~ctl:None ()

(** Run one DPOR-controlled execution: [ex]'s forced prefix decides the
    first scheduling points, then the default continuation; the events
    and backtrack candidates land in [ex]. *)
let run_controlled ~name ~load ~run ~nthreads ~ex () =
  run_session ~name ~load ~run ~mode:Uniform ~nthreads ~ctl:(Some ex) ()
