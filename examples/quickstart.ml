(* Quickstart: author a small kernel with the Builder DSL, let RegMutex
   split its register set, and compare baseline vs RegMutex execution.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A toy kernel with the paper's motivating shape: each thread chases a
     few nodes through memory and runs a high-pressure update for each —
     30 architected registers, most of them live only inside the inner
     block, so the static allocation limits occupancy. *)
  let program =
    Gpu_isa.Builder.(
      assemble ~name:"toy"
        ([ mul 0 ctaid ntid;
           add 0 (r 0) tid;
           mov 3 (imm 0);
           mul 2 (r 0) (imm 4) ]
        @ Workloads.Shape.counted_loop ~ctr:1 ~trips:(imm 8) ~name:"node"
            (Workloads.Shape.chase Gpu_isa.Instr.Global ~addr:2 ~dst:4 ~hops:3
            @ Workloads.Shape.bulge ~seed:4 ~acc:3 ~first:5 ~last:29 ~hold:2 ())
        @ [ store ~ofs:0x10000000 Gpu_isa.Instr.Global (r 0) (r 3); exit_ ]))
  in
  let kernel =
    Gpu_sim.Kernel.make ~name:"toy" ~grid_ctas:60 ~cta_threads:256 program
  in
  let arch = { Gpu_uarch.Arch_config.gtx480 with n_sms = 4 } in
  Format.printf "Kernel %s: %d instructions, %d registers/thread@."
    kernel.Gpu_sim.Kernel.name
    (Gpu_isa.Program.length program)
    (Gpu_sim.Kernel.regs_per_thread kernel);

  (* What does the compiler decide? *)
  let baseline = Regmutex.Runner.execute arch Regmutex.Technique.Baseline kernel in
  let rm = Regmutex.Runner.execute arch Regmutex.Technique.Regmutex kernel in
  (match rm.Regmutex.Runner.prepared.Regmutex.Technique.choice with
  | Some choice -> Format.printf "Heuristic: %a@." Regmutex.Es_heuristic.pp choice
  | None -> Format.printf "Heuristic: no viable split (runs as baseline)@.");
  (match rm.Regmutex.Runner.prepared.Regmutex.Technique.plan with
  | Some plan -> Format.printf "Transform: %a@." Regmutex.Transform.pp_plan plan
  | None -> ());

  Format.printf "@.%-10s %10s %12s %12s@." "technique" "cycles" "occupancy"
    "acquire-ok";
  let row (run : Regmutex.Runner.run) =
    Format.printf "%-10s %10d %11.0f%% %11.0f%%@."
      (Regmutex.Technique.name run.Regmutex.Runner.technique)
      run.Regmutex.Runner.cycles
      (100. *. run.Regmutex.Runner.theoretical_occupancy)
      (100. *. run.Regmutex.Runner.acquire_ratio)
  in
  row baseline;
  row rm;
  Format.printf "@.RegMutex cycle reduction: %.1f%%@."
    (Regmutex.Outcome.reduction_pct
       ~baseline:(Regmutex.Runner.outcome baseline)
       (Regmutex.Runner.outcome rm))
