open Gpu_sim
module B = Gpu_isa.Builder
module I = Gpu_isa.Instr

(* Each thread-warp computes gid*2+1 and stores it at its gid. *)
let arith_kernel =
  B.(
    assemble ~name:"arith"
      [ mul 0 ctaid ntid;
        add 0 (r 0) tid;
        mad 1 (r 0) (imm 2) (imm 1);
        store ~ofs:0x10000000 I.Global (r 0) (r 1);
        exit_ ])

let test_functional_result () =
  let stats = Util.run_with ~grid:2 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  let traces = Util.traces stats in
  (* 2 CTAs x 2 warps. *)
  Alcotest.(check int) "4 warps stored" 4 (List.length traces);
  List.iter
    (fun ((cta, w), tr) ->
      let gid = (cta * 64) + (w * 32) in
      match tr with
      | [ (I.Global, addr, v) ] ->
          Alcotest.(check int) "address" (0x10000000 + gid) addr;
          Alcotest.(check int) "value" ((gid * 2) + 1) v
      | _ -> Alcotest.fail "expected exactly one store")
    traces

let test_stats_basics () =
  let stats = Util.run_with ~grid:2 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  Alcotest.(check int) "all CTAs retired" 2 stats.Stats.ctas_retired;
  Alcotest.(check bool) "not timed out" false stats.Stats.timed_out;
  Alcotest.(check int) "instructions = warps x 5" (4 * 5) stats.Stats.instructions;
  Alcotest.(check bool) "cycles positive" true (stats.Stats.cycles > 0);
  Alcotest.(check bool) "ipc sane" true (Stats.ipc stats > 0.)

let test_latency_hiding () =
  (* A memory-bound kernel: more warps should reduce total cycles. *)
  let body =
    B.(
      [ mul 0 ctaid ntid; add 0 (r 0) tid; mov 3 (imm 0); mul 2 (r 0) (imm 4) ]
      @ Workloads.Shape.counted_loop ~ctr:1 ~trips:(imm 6) ~name:"l"
          (Workloads.Shape.chase I.Global ~addr:2 ~dst:4 ~hops:2
          @ [ mad 3 (r 4) (imm 1) (r 3) ])
      @ [ store ~ofs:0x10000000 I.Global (r 0) (r 3); exit_ ])
  in
  let prog = B.assemble ~name:"membound" body in
  let cycles_with_grid grid =
    (Util.run_with ~grid ~threads:64 (Util.static_policy prog) prog).Stats.cycles
  in
  let one = cycles_with_grid 1 in
  let eight = cycles_with_grid 8 in
  (* 8x the work should take far less than 8x the time. *)
  Alcotest.(check bool)
    (Printf.sprintf "parallel speedup (1 CTA: %d, 8 CTAs: %d)" one eight)
    true
    (eight < 4 * one)

let test_barrier_orders_shared_memory () =
  (* Warp 0 writes a shared slot before the barrier; all warps read it
     after. Without barrier semantics the values would be stale. *)
  let prog =
    B.(
      assemble ~name:"barrier"
        [ mov 0 tid;
          cmp I.Eq 1 (r 0) (imm 0);
          bz (r 1) "wait";
          store I.Shared (imm 0) (imm 77);
          label "wait";
          bar;
          load I.Shared 2 (imm 0);
          mul 3 ctaid ntid;
          add 3 (r 3) (r 0);
          store ~ofs:0x10000000 I.Global (r 3) (r 2);
          exit_ ])
  in
  let stats =
    Util.run_with ~grid:1 ~threads:128
      (Gpu_sim.Policy.Static { regs_per_thread = 4 })
      prog
  in
  let traces = Util.traces stats in
  Alcotest.(check int) "4 warps" 4 (List.length traces);
  List.iter
    (fun (_, tr) ->
      match List.rev tr with
      | (I.Global, _, v) :: _ -> Alcotest.(check int) "saw warp 0's write" 77 v
      | ((I.Shared | I.Spill), _, _) :: _ | [] ->
          Alcotest.fail "missing global store")
    traces

let test_timeout_flag () =
  let spin =
    B.(assemble ~name:"spin" [ label "l"; add 0 (r 0) (imm 1); bra "l"; exit_ ])
  in
  let kernel = Kernel.make ~name:"spin" ~grid_ctas:1 ~cta_threads:32 spin in
  let config =
    { (Gpu.default_config Util.small_arch (Policy.Static { regs_per_thread = 1 })) with
      Gpu.max_cycles = 500 }
  in
  let stats = Gpu.run config kernel in
  Alcotest.(check bool) "timed out" true stats.Stats.timed_out;
  Alcotest.(check int) "stopped at watchdog" 500 stats.Stats.cycles

let test_zero_occupancy_rejected () =
  let kernel = Kernel.make ~name:"big" ~grid_ctas:1 ~cta_threads:1537 arith_kernel in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Gpu.run (Gpu.default_config Util.small_arch (Util.static_policy arith_kernel)) kernel);
       false
     with Invalid_argument _ -> true)

let test_multi_sm_dispatch () =
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.n_sms = 4 } in
  let stats = Util.run_with ~arch ~grid:16 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  Alcotest.(check int) "all retired across SMs" 16 stats.Stats.ctas_retired;
  Alcotest.(check int) "all warps stored" 32 (List.length (Util.traces stats))

let test_occupancy_accounting () =
  let stats = Util.run_with ~grid:2 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  let occ = Stats.achieved_occupancy stats in
  Alcotest.(check bool) "occupancy in (0,1]" true (occ > 0. && occ <= 1.)

let test_per_warp_instruction_counts () =
  let stats = Util.run_with ~grid:2 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  let counts = Stats.warp_instruction_counts stats in
  Alcotest.(check int) "4 warps recorded" 4 (List.length counts);
  List.iter
    (fun (_, n) -> Alcotest.(check int) "uniform kernel, uniform count" 5 n)
    counts;
  (* A divergent kernel produces non-uniform counts across warps. *)
  let spec = Workloads.Spec.with_grid (Workloads.Registry.find "HeartWall") 4 in
  let kernel = spec.Workloads.Spec.kernel in
  let config =
    Gpu_sim.Gpu.default_config Util.small_arch
      (Policy.Static { regs_per_thread = Kernel.regs_per_thread kernel })
  in
  let stats = Gpu_sim.Gpu.run config kernel in
  let counts = List.map snd (Stats.warp_instruction_counts stats) in
  Alcotest.(check bool) "divergent counts differ" true
    (List.length (List.sort_uniq compare counts) > 1)

let test_theoretical_warps () =
  let kernel = Kernel.make ~name:"t" ~grid_ctas:4 ~cta_threads:256 arith_kernel in
  let config = Gpu.default_config Gpu_uarch.Arch_config.gtx480 (Policy.Static { regs_per_thread = 24 }) in
  Alcotest.(check int) "5 CTAs x 8 warps" 40 (Gpu.theoretical_warps config kernel)

(* The simulator's issue path allocates next to nothing: every pc is
   decoded once when the SM is built, memory-slot claims and pre-decoded
   outcomes are unboxed or preallocated, and the schedulers' residual
   check is a closure built once per SM. Minor-heap words per simulated
   warp instruction, set-up included, stay under a small budget for every
   technique on three Table I kernels (a simulator that allocated an
   operand closure, an outcome box or a boxed memory completion per issue
   spent 7.5 to 12.4 words on these cells). *)
let test_allocation_budget () =
  let cfg = Experiments.Exp_config.quick in
  List.iter
    (fun name ->
      let spec = Workloads.Registry.find name in
      let kernel = Experiments.Exp_config.kernel_of cfg spec in
      let arch = Experiments.Exp_config.eval_arch cfg spec in
      List.iter
        (fun technique ->
          let prepared = Regmutex.Technique.prepare arch technique kernel in
          let config =
            Gpu.default_config arch prepared.Regmutex.Technique.policy
          in
          let before = Gc.minor_words () in
          let stats = Gpu.run config prepared.Regmutex.Technique.kernel in
          let words = Gc.minor_words () -. before in
          let per_instr = words /. float_of_int stats.Stats.instructions in
          if per_instr >= 3. then
            Alcotest.failf "%s/%s: %.2f minor words per instruction (budget 3)"
              name
              (Regmutex.Technique.name technique)
              per_instr)
        Regmutex.Technique.all)
    [ "BFS"; "SAD"; "HotSpot3D" ]

(* Set-up budget: a run's set-up scales with its kernel. One run of a
   1-CTA kernel on one SM must allocate almost nothing on the major heap
   (an array over 256 words goes there directly); a simulator that sized
   its memory table for a large kernel up front spent 4,097 words here on
   every run. *)
let test_setup_budget () =
  let kernel =
    Kernel.make ~name:"setup" ~grid_ctas:1 ~cta_threads:64 arith_kernel
  in
  let config =
    { (Gpu.default_config Util.small_arch (Util.static_policy arith_kernel)) with
      Gpu.record_stores = true }
  in
  ignore (Gpu.run config kernel);
  Gc.minor ();
  let _, _, before = Gc.counters () in
  let stats = Gpu.run config kernel in
  let _, _, after = Gc.counters () in
  Alcotest.(check int) "the CTA ran" 1 stats.Stats.ctas_retired;
  let words = after -. before in
  if words >= 1024. then
    Alcotest.failf "one 1-CTA run allocated %.0f major-heap words (budget 1024)" words

let suite =
  [ Alcotest.test_case "functional results" `Quick test_functional_result;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "latency hiding with occupancy" `Quick test_latency_hiding;
    Alcotest.test_case "barrier orders shared memory" `Quick test_barrier_orders_shared_memory;
    Alcotest.test_case "watchdog timeout" `Quick test_timeout_flag;
    Alcotest.test_case "zero occupancy rejected" `Quick test_zero_occupancy_rejected;
    Alcotest.test_case "multi-SM dispatch" `Quick test_multi_sm_dispatch;
    Alcotest.test_case "occupancy accounting" `Quick test_occupancy_accounting;
    Alcotest.test_case "per-warp instruction counts" `Quick test_per_warp_instruction_counts;
    Alcotest.test_case "theoretical warps" `Quick test_theoretical_warps;
    Alcotest.test_case "allocation budget per instruction" `Quick
      test_allocation_budget;
    Alcotest.test_case "set-up budget of a 1-CTA run" `Quick test_setup_budget ]
