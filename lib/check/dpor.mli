(** Dynamic partial-order reduction for the cooperative checker.

    See the implementation header for the algorithm; DESIGN.md for the
    happens-before model and the soundness caveats. *)

(** Dependence class of a synchronisation operation (data accesses
    reach {!add_candidate} from the shadow memory, {!Race}). *)
type kind =
  | Kacquire   (** lock-style acquisition: critical, atomic statement
                   lock, [single] claim, shared dispatch claim *)
  | Kcombine   (** commuting atomic reduction update *)
  | Kload      (** atomic load — conflicts with combines *)

(** Object identity of a synchronisation operation. *)
type obj =
  | Olock of string
  | Oatomf of Omprt.Atomics.Float.t
  | Oatomi of Omprt.Atomics.Int.t
  | Odispatch of Omprt.Ws.Dispatch.t
  | Osingle of int * int  (** team uid, single epoch *)

type exec
(** One controlled execution: the forced decision prefix, the decision
    log, the synchronisation objects' last-access state and the
    backtrack candidates harvested so far. *)

val new_exec : prefix:int array -> exec

val decide : exec -> enabled:int list -> int
(** The controlled scheduler's decision function: replays the forced
    prefix, then stays on the current thread when runnable, else the
    lowest runnable id.  Logs every decision.  [enabled] must be the
    sorted non-empty runnable set. *)

val step : exec -> int
(** The decision index that resumed the running thread. *)

val record : exec -> gid:int -> obj:obj -> kind:kind -> unit
(** Record a synchronisation operation of virtual thread [gid] and
    derive backtrack candidates from dependent prior operations of
    other threads on the same object. *)

val add_candidate : exec -> step:int -> gid:int -> unit
(** A dependent, reorderable prior operation resumed at decision [step]
    justifies running virtual thread [gid] there instead (or, when [gid]
    was not yet runnable at [step], any other thread that was). *)

val note_width : exec -> int -> unit
(** Clock indices the execution allocated, for {!stats}. *)

val diverged : exec -> bool
(** A forced prefix failed to replay — a determinism violation. *)

val candidate_prefixes : exec -> (int array * int) list
(** The next prefixes this execution justifies, each with its
    preemption count; sorted for deterministic frontier insertion. *)

type verdict =
  | Complete
  | Bounded of { within_bound_left : bool }

type stats = {
  executions : int;
  racy_execs : int;
  diverged_execs : int;
  clock_width : int;  (** clock indices allocated, max over executions *)
  verdict : verdict;
}

val explore :
  max_execs:int ->
  preempt_bound:int ->
  run_one:(exec -> Report.finding list) ->
  Report.finding list * stats
(** Drain the reduced interleaving space, lowest-preemption prefixes
    first, running at most [max_execs] executions. *)
