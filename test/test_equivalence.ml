(* The central correctness property of the whole reproduction: a kernel
   instrumented by the RegMutex compiler pass and executed under the SRP
   policy (with dynamic verification on) behaves exactly like the original
   kernel under static allocation — for all 16 workloads and for random
   structured programs. Timing changes; architectural behaviour must not. *)

module Technique = Regmutex.Technique
module Spec = Workloads.Spec

let arch = { Gpu_uarch.Arch_config.gtx480 with n_sms = 2 }

let run_technique technique spec =
  let kernel = (Spec.with_grid spec 4).Spec.kernel in
  let prepared = Technique.prepare arch technique kernel in
  let config =
    { (Gpu_sim.Gpu.default_config arch prepared.Technique.policy) with
      Gpu_sim.Gpu.record_stores = true;
      max_cycles = 5_000_000 }
  in
  Gpu_sim.Gpu.run config prepared.Technique.kernel

let check_technique_equivalence technique name () =
  List.iter
    (fun spec ->
      let baseline = run_technique Technique.Baseline spec in
      let other = run_technique technique spec in
      Alcotest.(check bool)
        (spec.Spec.name ^ " completed")
        false other.Gpu_sim.Stats.timed_out;
      Util.check_same_traces
        (Printf.sprintf "%s under %s" spec.Spec.name name)
        (Util.traces baseline) (Util.traces other))
    Workloads.Registry.all

(* Random structured programs through the full transform. *)
let prop_transform_equivalence =
  Util.qtest ~count:60 ~print:Util.print_program
    "transform preserves behaviour (random kernels)"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      let liveness = Gpu_analysis.Liveness.analyze prog in
      let peak = Gpu_analysis.Liveness.max_pressure liveness in
      let bs = max 1 (min (prog.Gpu_isa.Program.n_regs - 1) (peak - 1)) in
      let es = prog.Gpu_isa.Program.n_regs - bs in
      let plan = Regmutex.Transform.apply ~bs ~es prog in
      let s_base = Util.run_with (Util.static_policy prog) prog in
      let s_rm =
        Util.run_with
          (Gpu_sim.Policy.Srp { bs; es; verify = true })
          plan.Regmutex.Transform.transformed
      in
      Util.traces s_base = Util.traces s_rm)

(* Same under the paired policy (even warp count enforced by grid shape). *)
let prop_transform_equivalence_paired =
  Util.qtest ~count:30 ~print:Util.print_program
    "transform preserves behaviour (paired policy)"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      let liveness = Gpu_analysis.Liveness.analyze prog in
      let peak = Gpu_analysis.Liveness.max_pressure liveness in
      let bs = max 1 (min (prog.Gpu_isa.Program.n_regs - 1) (peak - 1)) in
      let es = prog.Gpu_isa.Program.n_regs - bs in
      let plan = Regmutex.Transform.apply ~bs ~es prog in
      let s_base = Util.run_with (Util.static_policy prog) prog in
      let s_rm =
        Util.run_with
          (Gpu_sim.Policy.Srp_paired { bs; es; verify = true })
          plan.Regmutex.Transform.transformed
      in
      Util.traces s_base = Util.traces s_rm)

(* Widening off must still be sound: dataflow liveness alone is already a
   conservative-enough basis for the ext predicate on any path actually
   executed. *)
let prop_no_widen_equivalence =
  Util.qtest ~count:30 ~print:Util.print_program
    "transform without widening preserves behaviour"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      let liveness = Gpu_analysis.Liveness.analyze ~widen:false prog in
      let peak = Gpu_analysis.Liveness.max_pressure liveness in
      let bs = max 1 (min (prog.Gpu_isa.Program.n_regs - 1) (peak - 1)) in
      let es = prog.Gpu_isa.Program.n_regs - bs in
      let options = { Regmutex.Transform.default_options with widen = false } in
      match Regmutex.Transform.apply ~options ~bs ~es prog with
      | plan ->
          let s_base = Util.run_with (Util.static_policy prog) prog in
          let s_rm =
            Util.run_with
              (Gpu_sim.Policy.Srp { bs; es; verify = true })
              plan.Regmutex.Transform.transformed
          in
          Util.traces s_base = Util.traces s_rm
      | exception Regmutex.Transform.Unsound _ ->
          (* The static checker may reject a widen-less plan; that is a
             safe outcome, not an equivalence failure. *)
          true)

let suite =
  [ Alcotest.test_case "all workloads: RegMutex = baseline" `Slow
      (check_technique_equivalence Technique.Regmutex "regmutex");
    Alcotest.test_case "all workloads: paired = baseline" `Slow
      (check_technique_equivalence Technique.Regmutex_paired "regmutex-paired");
    Alcotest.test_case "all workloads: OWF = baseline" `Slow
      (check_technique_equivalence Technique.Owf "owf");
    Alcotest.test_case "all workloads: RFV = baseline" `Slow
      (check_technique_equivalence Technique.Rfv "rfv");
    prop_transform_equivalence;
    prop_transform_equivalence_paired;
    prop_no_widen_equivalence ]
