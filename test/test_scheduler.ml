open Gpu_sim
module Soa = Warp.Soa

(* Build an SoA pool with warps resident at the given (slot, age) pairs;
   unlisted slots stay absent and must be skipped by every scheduler. *)
let pool ?(priority = fun _ -> 0) slots_ages =
  let n = 1 + List.fold_left (fun acc (s, _) -> max acc s) 0 slots_ages in
  let soa = Soa.create ~n_slots:n ~n_regs:4 () in
  List.iter
    (fun (s, a) ->
      Soa.launch soa ~slot:s ~cta_slot:0 ~global_cta:0 ~warp_in_cta:s ~age:a;
      soa.Soa.key.(s) <- Scheduler.pack_key ~priority:(priority s) ~age:a)
    slots_ages;
  soa

(* The eligible mask the SM would hand [sched]: its owned slots whose warp
   is [Ready] with the scoreboard bound passed. *)
let eligible ~cycle sched (soa : Soa.t) =
  let m = ref 0 in
  for s = 0 to soa.Soa.n_slots - 1 do
    if
      Scheduler.owns sched ~slot:s
      && soa.Soa.status.(s) = Soa.st_ready
      && soa.Soa.ready_at.(s) <= cycle
    then m := !m lor (1 lsl s)
  done;
  !m

let pick ?(cycle = 0) ?(can = fun _ -> true) sched soa =
  Scheduler.pick sched ~soa ~eligible:(eligible ~cycle sched soa) ~plain:0
    ~can_issue:can

let test_gto_oldest_first () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 5); (1, 2); (2, 9) ] in
  Alcotest.(check int) "oldest wins" 1 (pick sched soa)

let test_gto_greedy () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 5); (1, 2) ] in
  Alcotest.(check int) "first pick oldest" 1 (pick sched soa);
  (* Same warp keeps issuing while it can (greedy). *)
  Alcotest.(check int) "greedy sticks" 1 (pick sched soa);
  (* When the current warp stalls, switch to the other one. *)
  Alcotest.(check int) "switch on stall" 0
    (pick ~can:(fun s -> s <> 1) sched soa);
  (* And stay greedy on the new one. *)
  Alcotest.(check int) "greedy on new warp" 0 (pick sched soa)

let test_ownership () =
  let sched = Scheduler.create Scheduler.Gto ~id:1 ~n_schedulers:2 in
  Alcotest.(check bool) "owns odd slots" true (Scheduler.owns sched ~slot:3);
  Alcotest.(check bool) "not even slots" false (Scheduler.owns sched ~slot:2);
  let soa = pool [ (0, 0); (1, 10); (2, 1); (3, 11) ] in
  Alcotest.(check int) "only scans own slots" 1 (pick sched soa)

let test_priority_beats_age () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  (* OWF-style: warp 1 is an owner (priority 0), warp 0 is not. *)
  let soa = pool ~priority:(fun s -> if s = 1 then 0 else 1) [ (0, 0); (1, 5) ] in
  Alcotest.(check int) "owner first despite age" 1 (pick sched soa)

let test_none_issueable () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 0) ] in
  Alcotest.(check int) "none" (-1) (pick ~can:(fun _ -> false) sched soa)

let test_scoreboard_gates_pick () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 0); (1, 1) ] in
  (* The oldest warp's operands are in flight until cycle 10: the
     scheduler must pass it over without consulting [can_issue]. *)
  soa.Soa.ready_at.(0) <- 10;
  Alcotest.(check int) "in-flight warp skipped" 1 (pick ~cycle:5 sched soa);
  (* A fresh scheduler (no greedy hold on slot 1) picks the older warp
     again once its operands complete. *)
  let fresh = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  Alcotest.(check int) "eligible again at completion" 0 (pick ~cycle:10 fresh soa)

let test_lrr_rotates () =
  let sched = Scheduler.create Scheduler.Lrr ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 0); (1, 1); (2, 2) ] in
  let first = pick sched soa in
  let second = pick sched soa in
  let third = pick sched soa in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2 ]
    (List.sort compare [ first; second; third ]);
  Alcotest.(check bool) "no immediate repeat" true (first <> second && second <> third)

let test_two_level_drains_group () =
  let sched = Scheduler.create (Scheduler.Two_level 2) ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 0); (1, 1); (2, 2); (3, 3) ] in
  (* Group 0 = slots {0,1}. Oldest of the active group wins while the
     group has runnable warps. *)
  Alcotest.(check int) "active group first" 0 (pick sched soa);
  Alcotest.(check int) "stays in group" 1 (pick ~can:(fun s -> s <> 0) sched soa);
  (* When the whole group stalls, rotate to group 1. *)
  Alcotest.(check int) "rotates on group stall" 2
    (pick ~can:(fun s -> s >= 2) sched soa);
  (* The rotation is sticky: group 1 is now active. *)
  Alcotest.(check int) "sticky rotation" 2 (pick sched soa)

let test_two_level_invalid () =
  Alcotest.check_raises "empty group"
    (Invalid_argument "Scheduler.create: empty fetch group") (fun () ->
      ignore (Scheduler.create (Scheduler.Two_level 0) ~id:0 ~n_schedulers:1))

let test_two_level_end_to_end () =
  (* A full simulation under each scheduler produces identical stores. *)
  let prog = Util.loop in
  let run kind =
    let arch = { Util.small_arch with Gpu_uarch.Arch_config.scheduler = kind } in
    Util.run_with ~arch (Util.static_policy prog) prog
  in
  let gto = run Gpu_uarch.Arch_config.Gto in
  let lrr = run Gpu_uarch.Arch_config.Lrr in
  let two = run (Gpu_uarch.Arch_config.Two_level 4) in
  Util.check_same_traces "gto vs lrr" (Util.traces gto) (Util.traces lrr);
  Util.check_same_traces "gto vs two-level" (Util.traces gto) (Util.traces two)

let test_warp_deps_ready () =
  let soa = pool [ (0, 0) ] in
  let instr = Gpu_isa.Instr.Bin (Gpu_isa.Instr.Add, 0, Gpu_isa.Instr.Reg 1, Gpu_isa.Instr.Imm 1) in
  Alcotest.(check bool) "ready initially" true
    (Soa.deps_ready soa ~slot:0 instr ~cycle:0);
  soa.Soa.reg_ready.(0).(1) <- 10;
  Alcotest.(check bool) "source in flight" false
    (Soa.deps_ready soa ~slot:0 instr ~cycle:5);
  Alcotest.(check bool) "ready at completion" true
    (Soa.deps_ready soa ~slot:0 instr ~cycle:10);
  soa.Soa.reg_ready.(0).(1) <- 0;
  soa.Soa.reg_ready.(0).(0) <- 10;
  Alcotest.(check bool) "destination busy blocks too" false
    (Soa.deps_ready soa ~slot:0 instr ~cycle:5)

(* Packed ordering keys: integer comparison of [pack_key] must equal
   lexicographic comparison of (priority, age) across the whole field
   width, and ages beyond the width must saturate instead of bleeding
   into the priority bits. *)
let test_packed_key_order () =
  let m = Scheduler.age_mask in
  let ages = [ 0; 1; 2; 1023; m / 2; m - 1; m; m + 1; m * 2; max_int ] in
  let priorities = [ 0; 1 ] in
  List.iter
    (fun p1 ->
      List.iter
        (fun a1 ->
          List.iter
            (fun p2 ->
              List.iter
                (fun a2 ->
                  let expect = compare (p1, min a1 m) (p2, min a2 m) in
                  let got =
                    compare
                      (Scheduler.pack_key ~priority:p1 ~age:a1)
                      (Scheduler.pack_key ~priority:p2 ~age:a2)
                  in
                  if got <> expect then
                    Alcotest.failf
                      "pack_key order mismatch: (%d,%d) vs (%d,%d): got %d, \
                       want %d"
                      p1 a1 p2 a2 got expect)
                ages)
            priorities)
        ages)
    priorities

let test_packed_key_saturation () =
  let m = Scheduler.age_mask in
  Alcotest.(check int) "age saturates at the mask"
    (Scheduler.pack_key ~priority:0 ~age:m)
    (Scheduler.pack_key ~priority:0 ~age:max_int);
  Alcotest.(check bool) "priority dominates any age" true
    (Scheduler.pack_key ~priority:0 ~age:max_int
    < Scheduler.pack_key ~priority:1 ~age:0);
  Alcotest.(check bool) "keys stay positive" true
    (Scheduler.pack_key ~priority:1 ~age:max_int > 0)

let test_pick_near_age_limit () =
  let m = Scheduler.age_mask in
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  (* Ages one apart just under the field width: order must survive. *)
  let soa = pool [ (0, m - 1); (1, m - 2) ] in
  Alcotest.(check int) "older wins near the limit" 1 (pick sched soa);
  (* A priority-0 owner with a saturated age still beats a young
     priority-1 warp. *)
  let sched2 = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa2 =
    pool ~priority:(fun s -> if s = 0 then 0 else 1) [ (0, max_int); (1, 0) ]
  in
  Alcotest.(check int) "saturated owner still first" 0 (pick sched2 soa2)

(* --- differential property: mask-driven picks vs a full slot scan ------- *)

(* The reference: the array-scanning pickers the mask-driven ones replaced.
   They visit every slot, apply the status/scoreboard prefix themselves and
   call [can_issue] on the survivors in increasing slot order. *)
type ref_state = {
  kind : Scheduler.kind;
  id : int;
  n_schedulers : int;
  mutable current : int;
  mutable rr_pos : int;
  mutable active_group : int;
}

let ref_owns r slot = slot mod r.n_schedulers = r.id

let ref_runnable (soa : Soa.t) ~cycle s =
  soa.Soa.status.(s) = Soa.st_ready && soa.Soa.ready_at.(s) <= cycle

let ref_scan_best r (soa : Soa.t) ~cycle ~can_issue =
  let best = ref (-1) and best_key = ref max_int in
  let slot = ref r.id in
  while !slot < soa.Soa.n_slots do
    let s = !slot in
    if ref_runnable soa ~cycle s && can_issue s then begin
      let k = soa.Soa.key.(s) in
      if k < !best_key then begin
        best_key := k;
        best := s
      end
    end;
    slot := s + r.n_schedulers
  done;
  !best

let ref_pick_gto r soa ~cycle ~can_issue =
  let cur = r.current in
  if cur >= 0 && cur < soa.Soa.n_slots && ref_runnable soa ~cycle cur && can_issue cur
  then cur
  else begin
    let s = ref_scan_best r soa ~cycle ~can_issue in
    if s >= 0 then r.current <- s;
    s
  end

let ref_pick_lrr r (soa : Soa.t) ~cycle ~can_issue =
  let n_slots = soa.Soa.n_slots in
  let rec go tried slot =
    if tried >= n_slots then -1
    else
      let slot = if slot >= n_slots then 0 else slot in
      if ref_owns r slot && ref_runnable soa ~cycle slot && can_issue slot then begin
        r.rr_pos <- slot + 1;
        slot
      end
      else go (tried + 1) (slot + 1)
  in
  go 0 r.rr_pos

let ref_pick_two_level r ~group_size (soa : Soa.t) ~cycle ~can_issue =
  let n_slots = soa.Soa.n_slots in
  let n_groups = (n_slots + group_size - 1) / group_size in
  let scan_group g =
    let best = ref (-1) and best_key = ref max_int in
    for slot = g * group_size to min n_slots ((g + 1) * group_size) - 1 do
      if ref_owns r slot && ref_runnable soa ~cycle slot && can_issue slot then begin
        let k = soa.Soa.key.(slot) in
        if k < !best_key then begin
          best_key := k;
          best := slot
        end
      end
    done;
    !best
  in
  let rec rotate tried g =
    if tried >= n_groups then -1
    else
      let s = scan_group g in
      if s >= 0 then begin
        r.active_group <- g;
        s
      end
      else rotate (tried + 1) ((g + 1) mod n_groups)
  in
  rotate 0 (r.active_group mod max n_groups 1)

let ref_pick r soa ~cycle ~can_issue =
  match r.kind with
  | Scheduler.Gto -> ref_pick_gto r soa ~cycle ~can_issue
  | Scheduler.Lrr -> ref_pick_lrr r soa ~cycle ~can_issue
  | Scheduler.Two_level group_size ->
      ref_pick_two_level r ~group_size soa ~cycle ~can_issue

(* One pick round: per slot a status (absent / ready / barrier / done), a
   scoreboard bound around the clock, an ordering key (ties on purpose),
   the residual answer [can_issue] gives for it, and whether the SM files
   it as plain (its check would pass, so the pick must not call it). *)
type slot_gen = {
  st : int;
  ready_off : int;
  prio : int;
  age : int;
  can : bool;
  plain : bool;
}

let gen_case =
  let open QCheck2.Gen in
  let* n_slots = int_range 1 62 in
  let* n_schedulers = int_range 1 4 in
  let* id = int_bound (n_schedulers - 1) in
  let* kind =
    oneof
      [ return Scheduler.Gto; return Scheduler.Lrr;
        map (fun g -> Scheduler.Two_level g) (int_range 1 9) ]
  in
  (* Half the cases keep the plain mask empty: exactly the unclassified
     pick. *)
  let* with_plain = bool in
  let slot =
    let* st =
      frequency
        [ (1, return Soa.st_absent); (5, return Soa.st_ready);
          (1, return Soa.st_barrier); (1, return Soa.st_done) ]
    in
    let* ready_off = int_range (-3) 3 in
    let* prio = int_bound 1 in
    let* age = int_bound 20 in
    let* can = frequency [ (3, return true); (1, return false) ] in
    let* plain = if with_plain then bool else return false in
    return { st; ready_off; prio; age; can; plain }
  in
  let* rounds = list_size (int_range 1 6) (array_size (return n_slots) slot) in
  return (n_slots, n_schedulers, id, kind, rounds)

let print_case (n_slots, n_schedulers, id, kind, rounds) =
  Printf.sprintf "n_slots=%d n_schedulers=%d id=%d kind=%s rounds=[%s]" n_slots
    n_schedulers id
    (match kind with
    | Scheduler.Gto -> "gto"
    | Scheduler.Lrr -> "lrr"
    | Scheduler.Two_level g -> Printf.sprintf "two-level %d" g)
    (String.concat "; "
       (List.map
          (fun a ->
            String.concat ","
              (Array.to_list
                 (Array.map
                    (fun g ->
                      Printf.sprintf "%d/%+d/%d.%d/%b%s" g.st g.ready_off
                        g.prio g.age g.can
                        (if g.plain then "/plain" else ""))
                    a)))
          rounds))

let prop_mask_pick_matches_scan =
  let cycle = 10 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~print:print_case
       ~name:"mask-driven pick matches the full slot scan" gen_case
       (fun (n_slots, n_schedulers, id, kind, rounds) ->
         let sched = Scheduler.create kind ~id ~n_schedulers in
         let r =
           { kind; id; n_schedulers; current = -1; rr_pos = 0; active_group = 0 }
         in
         let soa = Soa.create ~n_slots ~n_regs:1 () in
         List.for_all
           (fun round ->
             Array.iteri
               (fun s g ->
                 soa.Soa.status.(s) <- g.st;
                 soa.Soa.ready_at.(s) <- cycle + g.ready_off;
                 soa.Soa.key.(s) <-
                   (if g.st = Soa.st_absent then max_int
                    else Scheduler.pack_key ~priority:g.prio ~age:g.age))
               round;
             (* A plain slot always passes; the reference scan still
                asks about it, the mask-driven pick must not. *)
             let passes s = round.(s).plain || round.(s).can in
             let plain = ref 0 in
             Array.iteri
               (fun s g -> if g.plain then plain := !plain lor (1 lsl s))
               round;
             let recording () =
               let calls = ref [] in
               ( calls,
                 fun s ->
                   calls := s :: !calls;
                   passes s )
             in
             let ref_calls, ref_can = recording () in
             let got_calls, got_can = recording () in
             let want = ref_pick r soa ~cycle ~can_issue:ref_can in
             let got =
               Scheduler.pick sched ~soa
                 ~eligible:(eligible ~cycle sched soa)
                 ~plain:!plain ~can_issue:got_can
             in
             got = want
             && !got_calls = List.filter (fun s -> not round.(s).plain) !ref_calls
             && Scheduler.positions sched = (r.current, r.rr_pos, r.active_group))
           rounds))

let suite =
  [ Alcotest.test_case "GTO picks oldest" `Quick test_gto_oldest_first;
    Alcotest.test_case "GTO greedy behaviour" `Quick test_gto_greedy;
    Alcotest.test_case "slot ownership" `Quick test_ownership;
    Alcotest.test_case "priority beats age (OWF)" `Quick test_priority_beats_age;
    Alcotest.test_case "nothing issueable" `Quick test_none_issueable;
    Alcotest.test_case "scoreboard gates the pick" `Quick test_scoreboard_gates_pick;
    Alcotest.test_case "LRR rotation" `Quick test_lrr_rotates;
    Alcotest.test_case "two-level drains and rotates" `Quick test_two_level_drains_group;
    Alcotest.test_case "two-level validation" `Quick test_two_level_invalid;
    Alcotest.test_case "schedulers agree on behaviour" `Quick test_two_level_end_to_end;
    Alcotest.test_case "warp scoreboard" `Quick test_warp_deps_ready;
    Alcotest.test_case "packed key order" `Quick test_packed_key_order;
    Alcotest.test_case "packed key saturation" `Quick test_packed_key_saturation;
    Alcotest.test_case "pick near the age limit" `Quick test_pick_near_age_limit;
    prop_mask_pick_matches_scan ]
