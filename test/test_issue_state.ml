(* The SM's issue masks (eligible / pending / at-barrier, plus the wakeup
   wheel) are maintained incrementally at every status and scoreboard
   change. These tests recompute them from scratch on every observed cycle
   of real runs and check that the mask-driven idle classification agrees
   with the per-warp diagnosis. *)

open Gpu_sim
module Technique = Regmutex.Technique

let rank = function
  | Stats.Stall_regs -> 5
  | Stats.Stall_acquire -> 4
  | Stats.Stall_mem_slot -> 3
  | Stats.Stall_deps -> 2
  | Stats.Stall_barrier -> 1
  | Stats.Stall_empty | Stats.Stall_mem_retry -> 0

(* The most specific blockage among the warps, from the per-warp
   diagnosis (which checks every resident warp from scratch). *)
let diagnosed_reason sm ~cycle =
  List.fold_left
    (fun best d -> if rank d.Sm.d_block > rank best then d.Sm.d_block else best)
    Stats.Stall_empty (Sm.diagnose sm ~cycle)

let check_run ~name ~arch ~simt ~fast_forward technique kernel =
  let prepared =
    Technique.prepare
      ~options:{ Technique.default_options with Technique.simt }
      arch technique kernel
  in
  let config =
    { (Gpu.default_config arch prepared.Technique.policy) with
      Gpu.fast_forward; simt }
  in
  (* Brute force checks the masks on every cycle (and the classification,
     which needs the costlier diagnosis, on every sixteenth); fast-forward
     checks both at a stride longer than the wakeup wheel, so the jumps
     between samples cross whole laps of it. *)
  let observe_every, diagnose_every = if fast_forward then (101, 1) else (1, 16) in
  let observe ~cycle sms =
    Array.iteri
      (fun i sm ->
        if not (Sm.issue_state_ok sm ~cycle) then
          Alcotest.failf "%s: SM %d issue masks stale at cycle %d" name i cycle;
        if cycle / observe_every mod diagnose_every = 0 then begin
          let got = Sm.classify_idle sm ~cycle in
          let want = diagnosed_reason sm ~cycle in
          if got <> want then
            Alcotest.failf "%s: SM %d cycle %d: classify_idle %s, diagnosis %s"
              name i cycle (Stats.reason_name got) (Stats.reason_name want)
        end)
      sms
  in
  ignore (Gpu.run ~observe ~observe_every config prepared.Technique.kernel)

let schedulers =
  [ ("gto", Gpu_uarch.Arch_config.Gto); ("lrr", Gpu_uarch.Arch_config.Lrr);
    ("two-level", Gpu_uarch.Arch_config.Two_level 4) ]

(* Every registry kernel (Table I, latency-bound, divergent) under every
   technique, in both stepping modes. The scheduler rotates with the cell,
   so each kernel and each technique runs under all three of them. *)
let test_quick_grid ~simt () =
  let cfg = Experiments.Exp_config.quick in
  List.iteri
    (fun ki spec ->
      let kernel = Experiments.Exp_config.kernel_of cfg spec in
      List.iteri
        (fun ti technique ->
          let sname, scheduler = List.nth schedulers ((ki + ti) mod 3) in
          let arch =
            { (Experiments.Exp_config.eval_arch cfg spec) with
              Gpu_uarch.Arch_config.scheduler }
          in
          List.iter
            (fun fast_forward ->
              let name =
                Printf.sprintf "%s/%s/%s/%s%s" spec.Workloads.Spec.name
                  (Technique.name technique) sname
                  (if fast_forward then "ff" else "bf")
                  (if simt then "/simt" else "")
              in
              check_run ~name ~arch ~simt ~fast_forward technique kernel)
            [ true; false ])
        Technique.all)
    (Workloads.Registry.all @ Workloads.Registry.latency_bound
   @ Workloads.Registry.divergent)

(* OWF's first extended access is the one per-warp issue class: stateful
   (the partner may own the pair's registers) until the warp owns them,
   plain after. The registry cells never make a partner wait there, so
   this kernel does: both warps of each pair reach the extended registers
   together, and the later one must stall until its partner exits. The
   masks and the class of every warp are checked on every cycle. *)
let test_owf_partner_wait () =
  let prog = Test_policies.owf_kernel in
  let kernel = Kernel.make ~name:"owf" ~grid_ctas:2 ~cta_threads:64 prog in
  let config =
    Gpu.default_config Util.small_arch (Policy.Owf { bs = 3; es = 2 })
  in
  let observe ~cycle sms =
    Array.iteri
      (fun i sm ->
        if not (Sm.issue_state_ok sm ~cycle) then
          Alcotest.failf "SM %d issue state wrong at cycle %d" i cycle)
      sms
  in
  List.iter
    (fun fast_forward ->
      let stats = Gpu.run ~observe { config with Gpu.fast_forward } kernel in
      Alcotest.(check int) "one acquire per warp" 4 stats.Stats.acquire_execs;
      Alcotest.(check bool) "a partner waited for the pair's registers" true
        (stats.Stats.acquire_first_try < stats.Stats.acquire_execs))
    [ true; false ]

(* Every shipped configuration has 48 warp slots; an SM whose slots would
   not fit the masks' native int is rejected up front. *)
let test_slot_limit () =
  let arch =
    { Util.small_arch with
      Gpu_uarch.Arch_config.max_warps = 64;
      max_threads = 64 * 32;
      max_ctas = 64;
      regfile_regs = 1 lsl 20 }
  in
  let prog = Util.straight in
  let kernel = Kernel.make ~name:"wide" ~grid_ctas:64 ~cta_threads:32 prog in
  let create () =
    Sm.create (Sm.tables arch ~policy:(Util.static_policy prog) ~kernel)
      ~sm_id:0 ~memory:(Memory.create ()) ~mem_sys:(Mem_system.create arch ~n_sms:1)
      ~stats:(Stats.create ()) ~record_stores:false ~trace_warp0:false
  in
  Alcotest.check_raises "64 warp slots"
    (Invalid_argument "Sm.create: 64 warp slots per SM exceed the limit of 62")
    (fun () -> ignore (create ()))

let suite =
  [ Alcotest.test_case "masks exact on the quick grid (uniform)" `Quick
      (test_quick_grid ~simt:false);
    Alcotest.test_case "masks exact on the quick grid (simt)" `Quick
      (test_quick_grid ~simt:true);
    Alcotest.test_case "more than 62 warp slots rejected" `Quick test_slot_limit;
    Alcotest.test_case "OWF partner wait keeps classes exact" `Quick
      test_owf_partner_wait ]
