(* Unit tests for the FastTrack-style vector clocks (Check.Vc) that
   drive both the happens-before race filter and the DPOR dependence
   relation.  The clocks are sparse: entries never written read as 0,
   which encodes "never synchronised with" — several tests pin that
   convention because the race detector and the DPOR engine lean on
   it. *)

module Vc = Zigomp.Checker.Vc

let test_fresh_reads_zero () =
  let v = Vc.create () in
  Alcotest.(check int) "entry 0" 0 (Vc.get v 0);
  Alcotest.(check int) "entry far past the hint" 0 (Vc.get v 1000);
  let small = Vc.create ~hint:1 () in
  Alcotest.(check int) "hint does not bound reads" 0 (Vc.get small 17)

let test_set_get_growth () =
  let v = Vc.create ~hint:2 () in
  Vc.set v 0 3;
  Vc.set v 9 5;
  Alcotest.(check int) "written entry" 3 (Vc.get v 0);
  Alcotest.(check int) "entry written past the hint" 5 (Vc.get v 9);
  Alcotest.(check int) "gap entries stay 0" 0 (Vc.get v 4)

let test_tick () =
  let v = Vc.create () in
  Vc.tick v 2;
  Alcotest.(check int) "first tick from absent" 1 (Vc.get v 2);
  Vc.tick v 2;
  Vc.tick v 2;
  Alcotest.(check int) "ticks accumulate" 3 (Vc.get v 2);
  Alcotest.(check int) "other entries untouched" 0 (Vc.get v 0)

let test_join_pointwise_max () =
  let a = Vc.create () and b = Vc.create () in
  Vc.set a 0 5;
  Vc.set a 1 1;
  Vc.set b 1 4;
  Vc.set b 7 2;
  Vc.join a b;
  Alcotest.(check int) "dst keeps its larger entry" 5 (Vc.get a 0);
  Alcotest.(check int) "src wins where larger" 4 (Vc.get a 1);
  Alcotest.(check int) "dst grows to cover src" 2 (Vc.get a 7);
  (* join is into dst only: src unchanged *)
  Alcotest.(check int) "src entry 0 unchanged" 0 (Vc.get b 0);
  Alcotest.(check int) "src entry 1 unchanged" 4 (Vc.get b 1)

let test_copy_independent () =
  let a = Vc.create () in
  Vc.set a 3 7;
  let b = Vc.copy a in
  Vc.tick b 3;
  Vc.set b 5 1;
  Alcotest.(check int) "copy saw the value" 8 (Vc.get b 3);
  Alcotest.(check int) "original unaffected by copy's tick" 7 (Vc.get a 3);
  Alcotest.(check int) "original unaffected by copy's growth" 0 (Vc.get a 5);
  Vc.tick a 3;
  Alcotest.(check int) "copy unaffected by original's tick" 8 (Vc.get b 3)

let test_covers () =
  let v = Vc.create () in
  Vc.set v 1 3;
  Alcotest.(check bool) "earlier epoch covered" true
    (Vc.covers v ~idx:1 ~clk:2);
  Alcotest.(check bool) "equal epoch covered" true
    (Vc.covers v ~idx:1 ~clk:3);
  Alcotest.(check bool) "later epoch not covered" false
    (Vc.covers v ~idx:1 ~clk:4);
  Alcotest.(check bool) "absent index at clk 0 covered" true
    (Vc.covers v ~idx:42 ~clk:0);
  Alcotest.(check bool) "absent index at clk 1 not covered" false
    (Vc.covers v ~idx:42 ~clk:1)

(* The fork discipline the scheduler relies on: the parent copies its
   clock to each child and then ticks itself, so the child covers
   everything before the fork but nothing the parent does after it.
   (A missing post-copy tick once made the parent's region-body events
   indistinguishable from the fork point — this pins the ordering.) *)
let test_fork_handoff () =
  let parent = Vc.create () in
  let ptid = 0 in
  Vc.tick parent ptid;
  (* parent did some pre-fork work at clk 1 *)
  let pre_fork = Vc.get parent ptid in
  let child = Vc.copy parent in
  Vc.tick parent ptid;
  (* parent's first post-fork event *)
  let post_fork = Vc.get parent ptid in
  Alcotest.(check bool) "child covers the parent's pre-fork work" true
    (Vc.covers child ~idx:ptid ~clk:pre_fork);
  Alcotest.(check bool) "child does not cover post-fork events" false
    (Vc.covers child ~idx:ptid ~clk:post_fork)

(* Release/acquire through a lock clock: the acquirer covers exactly
   what the releaser had published at release time. *)
let test_lock_edge () =
  let t0 = Vc.create () and t1 = Vc.create () in
  let lock = Vc.create () in
  Vc.tick t0 0;
  (* t0's protected write at (0, 1) *)
  Vc.join lock t0;
  Vc.tick t0 0;
  (* t0's unprotected write at (0, 2), after the release *)
  Vc.join t1 lock;
  Alcotest.(check bool) "acquirer covers the protected write" true
    (Vc.covers t1 ~idx:0 ~clk:1);
  Alcotest.(check bool) "acquirer does not cover the later write" false
    (Vc.covers t1 ~idx:0 ~clk:2)

(* Index recycling: a holder that finished and was joined by the parent
   hands its index on to the parent's next child.  The new holder starts
   from the parent's clock and ticks past the old holder's last epoch,
   so a third clock that saw the new holder's event covers the old
   holder's too, and one that saw neither covers neither. *)
let test_recycled_index () =
  let parent = Vc.create () in
  Vc.tick parent 0;
  let old_holder = Vc.copy parent in
  Vc.tick old_holder 1;
  Vc.tick old_holder 1;
  let old_last = Vc.get old_holder 1 in
  Vc.join parent old_holder;
  Vc.tick parent 0;
  let new_holder = Vc.copy parent in
  Vc.tick new_holder 1;
  let new_first = Vc.get new_holder 1 in
  Alcotest.(check bool) "new holder's epochs pass the old holder's" true
    (new_first > old_last);
  let observer = Vc.create () in
  Vc.tick observer 2;
  Alcotest.(check bool) "unsynchronised observer covers neither" false
    (Vc.covers observer ~idx:1 ~clk:old_last);
  Vc.join observer new_holder;
  Alcotest.(check bool) "seeing the new holder covers the old one" true
    (Vc.covers observer ~idx:1 ~clk:old_last)

let suite =
  [ Alcotest.test_case "fresh clocks read 0 everywhere" `Quick
      test_fresh_reads_zero;
    Alcotest.test_case "set/get grows on demand" `Quick test_set_get_growth;
    Alcotest.test_case "tick increments one entry" `Quick test_tick;
    Alcotest.test_case "join is pointwise max into dst" `Quick
      test_join_pointwise_max;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "covers is the epoch test" `Quick test_covers;
    Alcotest.test_case "fork hands off then ticks" `Quick test_fork_handoff;
    Alcotest.test_case "release/acquire edge" `Quick test_lock_edge;
    Alcotest.test_case "recycled index keeps covers exact" `Quick
      test_recycled_index;
  ]
