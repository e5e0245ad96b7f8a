open Regmutex
module Program = Gpu_isa.Program
module I = Gpu_isa.Instr

let test_identity () =
  let plan = Transform.identity Util.straight in
  Alcotest.check Util.program "unchanged" Util.straight plan.Transform.transformed;
  Alcotest.(check int) "es = 0" 0 plan.Transform.es;
  Alcotest.(check int) "no acquires" 0 plan.Transform.n_acquires

let test_invalid_split () =
  Alcotest.check_raises "bs+es too small"
    (Invalid_argument "Transform.apply: |Bs|+|Es| = 2 cannot hold 3 registers")
    (fun () -> ignore (Transform.apply ~bs:1 ~es:1 Util.straight));
  Alcotest.check_raises "bs must be positive"
    (Invalid_argument "Transform.apply: |Bs| must be positive") (fun () ->
      ignore (Transform.apply ~bs:0 ~es:5 Util.straight))

let test_counts () =
  let prog = (Workloads.Registry.find "CUTCP").Workloads.Spec.kernel.Gpu_sim.Kernel.program in
  let plan = Transform.apply ~bs:20 ~es:8 prog in
  Alcotest.(check bool) "acquires injected" true (plan.Transform.n_acquires >= 1);
  Alcotest.(check bool) "releases injected" true (plan.Transform.n_releases >= 1);
  Alcotest.(check int) "static acquire count matches program"
    plan.Transform.n_acquires
    (Program.count (fun i -> i = I.Acquire) plan.Transform.transformed);
  Alcotest.(check int) "static release count matches program"
    plan.Transform.n_releases
    (Program.count (fun i -> i = I.Release) plan.Transform.transformed);
  Alcotest.(check bool) "ext fraction in (0,1)" true
    (plan.Transform.ext_static_fraction > 0. && plan.Transform.ext_static_fraction < 1.);
  Alcotest.(check int) "max pressure recorded" 25 plan.Transform.max_pressure

let test_no_pressure_above_bs () =
  (* bs covering the whole register set -> nothing injected. *)
  let plan = Transform.apply ~bs:3 ~es:2 Util.straight in
  Alcotest.(check int) "no acquires" 0 plan.Transform.n_acquires;
  Alcotest.check Util.program "program equal after permute-identity"
    Util.straight plan.Transform.transformed

let test_options_off () =
  let prog = (Workloads.Registry.find "SAD").Workloads.Spec.kernel.Gpu_sim.Kernel.program in
  let bare =
    Transform.apply
      ~options:{ Transform.widen = true; permute = false; mov_compact = false }
      ~bs:20 ~es:12 prog
  in
  let full = Transform.apply ~bs:20 ~es:12 prog in
  Alcotest.(check int) "no movs when disabled" 0 bare.Transform.n_movs;
  (* The compaction passes only ever shrink the acquire-state footprint. *)
  Alcotest.(check bool) "compaction does not grow ext" true
    (full.Transform.ext_static_fraction <= bare.Transform.ext_static_fraction +. 1e-9)

let test_all_workloads_transform () =
  List.iter
    (fun spec ->
      let prog = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.program in
      let bs = spec.Workloads.Spec.paper_bs in
      let es = Workloads.Spec.paper_es spec in
      let plan = Transform.apply ~bs ~es prog in
      Alcotest.(check bool)
        (spec.Workloads.Spec.name ^ " injects something")
        true
        (plan.Transform.n_acquires >= 1))
    Workloads.Registry.all

let prop_transform_sound =
  Util.qtest ~count:40 ~print:Util.print_program
    "transform output always passes the checker"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      let liveness = Gpu_analysis.Liveness.analyze prog in
      let peak = Gpu_analysis.Liveness.max_pressure liveness in
      let bs = max 1 (min (prog.Program.n_regs - 1) (peak - 1)) in
      let es = prog.Program.n_regs - bs in
      (* Transform.apply raises Unsound if its checker fails. *)
      match Transform.apply ~bs ~es prog with
      | (_ : Transform.plan) -> true
      | exception Transform.Unsound _ -> false)

let suite =
  [ Alcotest.test_case "identity plan" `Quick test_identity;
    Alcotest.test_case "invalid splits" `Quick test_invalid_split;
    Alcotest.test_case "plan counts" `Quick test_counts;
    Alcotest.test_case "no pressure above bs" `Quick test_no_pressure_above_bs;
    Alcotest.test_case "pass options" `Quick test_options_off;
    Alcotest.test_case "all workloads transform" `Quick test_all_workloads_transform;
    prop_transform_sound ]
