(** Shadow memory: the one happens-before engine for data accesses,
    serving both race reports and DPOR backtrack candidates.

    Per traced location the table keeps the last write and the latest
    read per clock index since that write (FastTrack-style).  An access
    conflicts with a prior one when the current thread's vector clock
    does not cover the prior's epoch: no fork/join/barrier/lock edge
    ordered them.  Each conflict is reported as a race and, in a
    controlled execution, is a backtrack candidate at the decision that
    resumed the prior access.  Clock indices are recycled at joins
    ({!Vc}), so a read set is bounded by the threads live at once; a
    later holder's read happens after an earlier holder's, so keeping
    only the newer one loses no racy location (DESIGN.md).

    Locations are identified physically: variable cells by the [ref]
    they live in, array elements by the array object and index — the
    identity the interpreter's tracer hands us, so aliasing through
    pointers and captures is resolved for free. *)

module Rt = Interp.Rt

type evt = {
  idx : int;               (* clock index of the accessing thread *)
  clk : int;               (* its epoch at the access *)
  step : int;              (* DPOR decision that resumed it; -1 if none *)
  off : int;               (* byte offset in the preprocessed source *)
  op : string option;      (* compound-assignment operator, writes only *)
  rw : [ `R | `W ];
}

(* The absent access: epoch 0 is covered by every clock, so it never
   conflicts. *)
let none = { idx = 0; clk = 0; step = -1; off = 0; op = None; rw = `R }

type entry = {
  mutable w : evt;            (* last write, [none] before the first *)
  mutable reads : evt array;  (* by clock index: latest read since [w] *)
}

type t = {
  src : Zr.Source.t;  (* preprocessed source, for positions/snippets *)
  ctl : Dpor.exec option;  (* the controlled execution, if any *)
  mutable cells : (Interp.Value.t ref * entry) list;
  mutable fa : (float array * (int, entry) Hashtbl.t) list;
  mutable ia : (int array * (int, entry) Hashtbl.t) list;
  dedup : (string, unit) Hashtbl.t;
  mutable findings : Report.finding list;
}

let create ~src ~ctl =
  { src; ctl; cells = []; fa = []; ia = [];
    dedup = Hashtbl.create 16; findings = [] }

(** Look [x] up by physical identity; on a miss, [add] conses a
    [fresh ()] binding onto the table. *)
let find_or_add table x ~fresh ~add =
  match List.assq x table with
  | v -> v
  | exception Not_found ->
      let v = fresh () in
      add (x, v);
      v

let fresh_entry () = { w = none; reads = [||] }

let elem_entry h i =
  match Hashtbl.find_opt h i with
  | Some e -> e
  | None ->
      let e = fresh_entry () in
      Hashtbl.add h i e;
      e

let entry_of t (acc : Rt.access) : entry =
  let elems tables a ~add =
    find_or_add tables a ~fresh:(fun () -> Hashtbl.create 64) ~add
  in
  match acc with
  | Rt.Acell r ->
      find_or_add t.cells r ~fresh:fresh_entry ~add:(fun b ->
          t.cells <- b :: t.cells)
  | Rt.Afelem (a, i) ->
      elem_entry (elems t.fa a ~add:(fun b -> t.fa <- b :: t.fa)) i
  | Rt.Aielem (a, i) ->
      elem_entry (elems t.ia a ~add:(fun b -> t.ia <- b :: t.ia)) i

(* ---------------------------- rendering --------------------------- *)

let pos t off =
  let line, col = Zr.Source.position t.src off in
  Printf.sprintf "%d:%d" line col

let rw_s = function `R -> "read" | `W -> "write"

let render_evt t e =
  Printf.sprintf "%s@%s%s" (rw_s e.rw) (pos t e.off)
    (match e.op with Some o -> "[" ^ o ^ "]" | None -> "")

(* The source line of an offset, whitespace-trimmed. *)
let snippet t off =
  let text = t.src.Zr.Source.text in
  let n = String.length text in
  let b = ref off and e = ref off in
  while !b > 0 && text.[!b - 1] <> '\n' do decr b done;
  while !e < n && text.[!e] <> '\n' do incr e done;
  String.trim (String.sub text !b (!e - !b))

let suggestion ~var a b =
  let var = if var = "" then "<expr>" else var in
  match a.op, b.op with
  | (Some o, _ | _, Some o) when a.off = b.off && a.rw = `W && b.rw = `W ->
      Printf.sprintf "reduction(%s: %s)" o var
  | _ ->
      Printf.sprintf
        "atomic/critical around the conflicting accesses, or private(%s)" var

let report t ~var ~(prior : evt) ~(cur : evt) =
  (* Normalise the pair so the rendered line does not depend on which
     schedule surfaced the race first. *)
  let a, b =
    if (prior.off, prior.rw) <= (cur.off, cur.rw) then (prior, cur)
    else (cur, prior)
  in
  let var = Report.clean_var var in
  let key =
    Printf.sprintf "%s|%s%d|%s%d" var (rw_s a.rw) a.off (rw_s b.rw) b.off
  in
  if not (Hashtbl.mem t.dedup key) then begin
    Hashtbl.add t.dedup key ();
    let line =
      Printf.sprintf "race %s: %s vs %s :: `%s` :: suggest %s"
        (if var = "" then "<expr>" else var)
        (render_evt t a) (render_evt t b) (snippet t b.off)
        (suggestion ~var a b)
    in
    t.findings <- Report.race ~var line :: t.findings
  end

(* --------------------------- the check ---------------------------- *)

(** One traced access by the thread with DPOR id [gid], clock index
    [idx] and vector clock [vc]: report every conflicting prior access,
    seed the matching backtrack candidates, and record the access. *)
let access t ~rw (acc : Rt.access) ~off ~hint ~gid ~idx ~(vc : Vc.t)
    ~(op : string option) =
  let e = entry_of t acc in
  let step = Option.fold ~none:(-1) ~some:Dpor.step t.ctl in
  let cur =
    { idx; clk = Vc.get vc idx; step; off;
      op = (if rw = `W then op else None); rw }
  in
  let check (prior : evt) =
    if not (Vc.covers vc ~idx:prior.idx ~clk:prior.clk) then begin
      report t ~var:hint ~prior ~cur;
      Option.iter (fun ex -> Dpor.add_candidate ex ~step:prior.step ~gid) t.ctl
    end
  in
  check e.w;
  match rw with
  | `R ->
      if idx >= Array.length e.reads then begin
        let r = Array.make (max (idx + 1) 4) none in
        Array.blit e.reads 0 r 0 (Array.length e.reads);
        e.reads <- r
      end;
      e.reads.(idx) <- cur
  | `W ->
      Array.iter check e.reads;
      Array.fill e.reads 0 (Array.length e.reads) none;
      e.w <- cur

let findings t = t.findings
