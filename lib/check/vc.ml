(** Vector clocks for the happens-before race detector.

    One entry per {e clock index}, not per virtual thread: {!Sched}
    recycles a finished thread's index at the join that orders its last
    event, so a clock is as wide as the threads live at once.  An index
    goes only to a thread whose clock covers the previous holder's last
    epoch, and the new holder ticks past it, so {!covers} answers as if
    every thread had its own index (DESIGN.md, "Clock-index
    recycling").  Entries never written read as 0 — the FastTrack
    convention for "never synchronised with"; the array grows on
    demand. *)

type t = { mutable c : int array }

let create ?(hint = 8) () = { c = Array.make (max 1 hint) 0 }

let get v i = if i < Array.length v.c then v.c.(i) else 0

let ensure v n =
  if n > Array.length v.c then begin
    let c' = Array.make (max n (2 * Array.length v.c)) 0 in
    Array.blit v.c 0 c' 0 (Array.length v.c);
    v.c <- c'
  end

let set v i x =
  ensure v (i + 1);
  v.c.(i) <- x

let tick v i = set v i (get v i + 1)

(** [join dst src] — pointwise maximum, into [dst]. *)
let join dst src =
  ensure dst (Array.length src.c);
  Array.iteri (fun i x -> if x > dst.c.(i) then dst.c.(i) <- x) src.c

let copy v = { c = Array.copy v.c }

(** [covers v ~idx ~clk] — does [v] happen-after the event stamped with
    epoch [clk] on clock index [idx]?  The core FastTrack test: an epoch
    is ordered before everything whose clock for that index has reached
    it. *)
let covers v ~idx ~clk = clk <= get v idx
