(* RegDem demotion pass: plan accounting, behaviour preservation across
   the whole keep sweep, occupancy-driven selection, spill-window
   discipline, and printer/codec round-trips of spilling programs. *)

open Gpu_isa
module Regdem = Regmutex.Regdem
module Technique = Regmutex.Technique
module Kernel = Gpu_sim.Kernel
module Policy = Gpu_sim.Policy
module Gpu = Gpu_sim.Gpu
module Stats = Gpu_sim.Stats
module Facts = Gpu_analysis.Facts

(* A straight dependence chain keeps every register live to the end, so
   any keep boundary demotes real, still-needed values. *)
let chain =
  Builder.(
    assemble ~name:"chain"
      [ mov 0 (imm 1);
        add 1 (r 0) (imm 2);
        add 2 (r 1) (imm 3);
        add 3 (r 2) (imm 4);
        add 4 (r 3) (imm 5);
        add 5 (r 4) (r 0);
        store Instr.Global (imm 64) (r 5);
        exit_ ])

let run_regdem ?(grid = 2) ?(threads = 64) ~keep prog =
  let wpc = threads / 32 in
  let plan = Regdem.transform ~keep ~wpc (Facts.of_program prog) in
  let kern0 =
    Kernel.make ~name:"t" ~grid_ctas:grid ~cta_threads:threads ~params:[||] prog
  in
  let kern =
    Kernel.with_shmem_bytes
      (Kernel.with_program kern0 plan.Regdem.transformed)
      (Regdem.shmem_bytes_with_window kern0 ~spill_words:plan.Regdem.spill_words)
  in
  let policy =
    Policy.Regdem
      { regs_per_thread = plan.Regdem.allocated;
        spill_words = plan.Regdem.spill_words }
  in
  let config =
    { (Gpu.default_config Util.small_arch policy) with
      Gpu.record_stores = true;
      max_cycles = 2_000_000 }
  in
  (plan, Gpu.run config kern)

let test_plan_accounting () =
  let wpc = 2 in
  let plan = Regdem.transform ~keep:3 ~wpc (Facts.of_program chain) in
  Alcotest.(check int) "keep" 3 plan.Regdem.keep;
  Alcotest.(check int) "demoted regs" 3 plan.Regdem.demoted;
  Alcotest.(check int) "window = demoted * wpc" (3 * wpc) plan.Regdem.spill_words;
  Alcotest.(check int) "allocated = keep + scratch"
    (plan.Regdem.keep + plan.Regdem.scratch)
    plan.Regdem.allocated;
  Alcotest.(check bool) "spills emitted" true (plan.Regdem.n_spills > 0);
  Alcotest.(check bool) "fills emitted" true (plan.Regdem.n_fills > 0);
  Alcotest.(check int) "static spill count matches program"
    plan.Regdem.n_spills
    (Program.count
       (function Instr.Store (Instr.Spill, _, _, _) -> true | _ -> false)
       plan.Regdem.transformed);
  Alcotest.(check int) "static fill count matches program"
    plan.Regdem.n_fills
    (Program.count
       (function Instr.Load (Instr.Spill, _, _, _) -> true | _ -> false)
       plan.Regdem.transformed);
  (* Every register reference fits the reduced allocation. *)
  Alcotest.(check int) "n_regs = allocated" plan.Regdem.allocated
    plan.Regdem.transformed.Program.n_regs

let test_transform_validation () =
  Alcotest.check_raises "keep = 0 rejected"
    (Invalid_argument "Regdem.transform: keep must be in [1, n_regs)")
    (fun () ->
      ignore (Regdem.transform ~keep:0 ~wpc:2 (Facts.of_program chain)));
  Alcotest.check_raises "keep = n_regs rejected"
    (Invalid_argument "Regdem.transform: keep must be in [1, n_regs)")
    (fun () ->
      ignore (Regdem.transform ~keep:6 ~wpc:2 (Facts.of_program chain)));
  Alcotest.check_raises "wpc = 0 rejected"
    (Invalid_argument "Regdem.transform: wpc must be positive")
    (fun () ->
      ignore (Regdem.transform ~keep:3 ~wpc:0 (Facts.of_program chain)))

(* Behaviour preservation over the full keep sweep, for every control
   shape the test corpus has: straight line, diamond, loop, chain. *)
let test_preserves_behaviour () =
  List.iter
    (fun prog ->
      let base = Util.run_with (Util.static_policy prog) prog in
      for keep = 1 to prog.Program.n_regs - 1 do
        let plan, stats = run_regdem ~keep prog in
        Util.check_same_traces
          (Printf.sprintf "%s keep=%d" prog.Program.name keep)
          (Util.traces base) (Util.traces stats);
        Alcotest.(check int)
          (Printf.sprintf "%s keep=%d stays in its window" prog.Program.name keep)
          0 stats.Stats.shared_oob;
        if plan.Regdem.n_spills > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "%s keep=%d executes spills" prog.Program.name keep)
            true
            (stats.Stats.spill_stores > 0)
      done)
    [ Util.straight; Util.diamond; Util.loop; chain ]

let test_spill_counters_monotone () =
  (* Demoting more registers (smaller keep) can only add spill traffic. *)
  let executed keep =
    let _, stats = run_regdem ~keep chain in
    stats.Stats.spill_stores + stats.Stats.fill_loads
  in
  let deep = executed 1 and shallow = executed 5 in
  Alcotest.(check bool)
    (Printf.sprintf "keep=1 traffic (%d) >= keep=5 traffic (%d)" deep shallow)
    true (deep >= shallow);
  Alcotest.(check bool) "keep=1 actually spills" true (deep > 0)

let test_choose_improves_occupancy () =
  (* 34 registers in 512-thread CTAs is register-limited on the GTX 480
     model: demotion must buy at least one more resident CTA. *)
  let prog =
    Builder.(
      assemble ~name:"fat"
        ([ mul 0 ctaid ntid; add 0 (r 0) tid; mov 1 (imm 0) ]
        @ Workloads.Shape.bulge ~seed:0 ~acc:1 ~first:2 ~last:33 ~hold:2 ()
        @ [ store ~ofs:0x10000000 Instr.Global (r 0) (r 1); exit_ ]))
  in
  let kernel =
    Kernel.make ~name:"fat" ~grid_ctas:4 ~cta_threads:512 prog
  in
  let arch = Gpu_uarch.Arch_config.gtx480 in
  let choice = Regdem.choose arch kernel in
  Alcotest.(check bool) "candidates swept" true (choice.Regdem.candidates <> []);
  match choice.Regdem.best with
  | None -> Alcotest.fail "expected a profitable demotion"
  | Some c ->
      Alcotest.(check bool)
        (Printf.sprintf "strictly more warps (%d > %d)" c.Regdem.c_warps
           choice.Regdem.baseline_warps)
        true
        (c.Regdem.c_warps > choice.Regdem.baseline_warps);
      Alcotest.(check int) "candidate allocation arithmetic"
        (c.Regdem.c_keep + c.Regdem.c_scratch) c.Regdem.c_allocated;
      let wpc = Kernel.warps_per_cta arch kernel in
      Alcotest.(check int) "candidate window arithmetic"
        (c.Regdem.c_demoted * wpc) c.Regdem.c_spill_words;
      (* prepare must reach the same conclusion and carry the plan. *)
      let p = Technique.prepare arch Technique.Regdem kernel in
      (match p.Technique.policy with
      | Policy.Regdem { regs_per_thread; spill_words } ->
          Alcotest.(check int) "policy registers" c.Regdem.c_allocated
            regs_per_thread;
          Alcotest.(check int) "policy window" c.Regdem.c_spill_words spill_words
      | _ -> Alcotest.fail "expected a Regdem policy");
      Alcotest.(check bool) "plan recorded" true (p.Technique.regdem <> None)

let test_prepare_fallback () =
  (* A tiny kernel is occupancy-bound elsewhere: no demotion helps, the
     kernel runs unmodified under an empty window. *)
  let kernel =
    Kernel.make ~name:"t" ~grid_ctas:2 ~cta_threads:64 Util.straight
  in
  let arch = Gpu_uarch.Arch_config.gtx480 in
  let p = Technique.prepare arch Technique.Regdem kernel in
  (match p.Technique.policy with
  | Policy.Regdem { regs_per_thread; spill_words } ->
      Alcotest.(check int) "full demand" 3 regs_per_thread;
      Alcotest.(check int) "no window" 0 spill_words
  | _ -> Alcotest.fail "expected a Regdem policy");
  Alcotest.check Util.program "program untouched" Util.straight
    p.Technique.kernel.Kernel.program

let test_oob_spill_is_counted () =
  (* A spill store aimed past the window must not corrupt user shared
     memory silently: it wraps and bumps [shared_oob]. *)
  let prog =
    Program.create ~name:"oob"
      [| Instr.Mov (0, Instr.Imm 7);
         Instr.Store (Instr.Spill, Instr.Special Instr.Warp_id, Instr.Reg 0, 5);
         Instr.Exit |]
  in
  let kern =
    Kernel.with_shmem_bytes
      (Kernel.make ~name:"oob" ~grid_ctas:1 ~cta_threads:32 ~params:[||] prog)
      (4 * (1 + 2))
  in
  let policy = Policy.Regdem { regs_per_thread = 1; spill_words = 2 } in
  let config = Gpu.default_config Util.small_arch policy in
  let stats = Gpu.run config kern in
  Alcotest.(check bool) "out-of-window spill counted" true
    (stats.Stats.shared_oob > 0)

let test_spill_roundtrips () =
  (* Transformed programs (carrying ld.spill/st.spill and %warpid
     operands) survive the printer/parser and the binary codec. *)
  let plan = Regdem.transform ~keep:2 ~wpc:4 (Facts.of_program chain) in
  let prog = plan.Regdem.transformed in
  let reparsed =
    Parser.parse ~name:prog.Program.name (Format.asprintf "%a" Program.pp prog)
  in
  Alcotest.check Util.program "parse (print p) = p" prog reparsed;
  Alcotest.(check bool) "encodable" true (Codec.encodable prog);
  Alcotest.check Util.program "decode (encode p) = p" prog
    (Codec.decode_program ~name:prog.Program.name (Codec.encode_program prog))

(* [choose] scores its whole keep sweep from one liveness analysis and
   one ranking sweep, on the original program; each candidate must equal
   one rebuilt from [Regdem.transform], which renames the program per
   keep count (with a fresh analysis) and scans the renamed program. *)
let test_choose_matches_transform () =
  let reference cfg kernel keep =
    let wpc = Kernel.warps_per_cta cfg kernel in
    let plan =
      Regdem.transform ~keep ~wpc (Facts.of_program kernel.Kernel.program)
    in
    let spill_words = plan.Regdem.spill_words in
    let shmem_bytes = Regdem.shmem_bytes_with_window kernel ~spill_words in
    let capacity =
      Gpu_sim.Sm.cta_capacity_for cfg
        ~policy:
          (Policy.Regdem { regs_per_thread = plan.Regdem.allocated; spill_words })
        ~kernel:(Kernel.with_shmem_bytes kernel shmem_bytes)
    in
    { Regdem.c_keep = keep;
      c_scratch = plan.Regdem.scratch;
      c_allocated = plan.Regdem.allocated;
      c_demoted = plan.Regdem.demoted;
      c_spill_words = spill_words;
      c_shmem_bytes = shmem_bytes;
      c_warps = capacity * wpc;
      c_static_spills = plan.Regdem.n_spills;
      c_static_fills = plan.Regdem.n_fills }
  in
  let check name cfg kernel =
    let choice = Regdem.choose cfg kernel in
    let n_regs = Kernel.regs_per_thread kernel in
    Alcotest.(check int) (name ^ ": one candidate per keep") (max 0 (n_regs - 1))
      (List.length choice.Regdem.candidates);
    List.iter
      (fun c ->
        let r = reference cfg kernel c.Regdem.c_keep in
        if c <> r then
          Alcotest.failf "%s: choose gave %a, per-keep reference %a" name
            Regdem.pp_candidate c Regdem.pp_candidate r)
      choice.Regdem.candidates
  in
  let cfg = Experiments.Exp_config.quick in
  List.iter
    (fun spec ->
      check spec.Workloads.Spec.name
        (Experiments.Exp_config.eval_arch cfg spec)
        (Experiments.Exp_config.kernel_of cfg spec))
    (Workloads.Registry.all @ Workloads.Registry.latency_bound
   @ Workloads.Registry.divergent);
  for seed = 0 to 49 do
    check
      (Printf.sprintf "fuzz seed %d" seed)
      Gpu_uarch.Arch_config.gtx480
      (Fuzz.Gen.kernel (Fuzz.Gen.generate ~seed))
  done

let suite =
  [ Alcotest.test_case "plan accounting" `Quick test_plan_accounting;
    Alcotest.test_case "argument validation" `Quick test_transform_validation;
    Alcotest.test_case "behaviour preserved across keep sweep" `Quick
      test_preserves_behaviour;
    Alcotest.test_case "spill traffic monotone in demotion depth" `Quick
      test_spill_counters_monotone;
    Alcotest.test_case "choose improves occupancy" `Quick
      test_choose_improves_occupancy;
    Alcotest.test_case "prepare falls back on tiny kernels" `Quick
      test_prepare_fallback;
    Alcotest.test_case "out-of-window spill is counted" `Quick
      test_oob_spill_is_counted;
    Alcotest.test_case "spill programs round-trip" `Quick test_spill_roundtrips;
    Alcotest.test_case "choose matches per-keep transform" `Quick
      test_choose_matches_transform ]
