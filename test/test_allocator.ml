open Gpu_analysis
module Program = Gpu_isa.Program
module Liveness' = Gpu_analysis.Liveness

(* Disjoint lifetimes: r0 dies before r1 is born — one register suffices
   (plus the store's value path). *)
let sequential =
  Gpu_isa.Builder.(
    assemble ~name:"seq"
      [ mov 0 (imm 1);
        store ~ofs:0x10000000 Gpu_isa.Instr.Global (imm 0) (r 0);
        mov 1 (imm 2);
        store ~ofs:0x10000000 Gpu_isa.Instr.Global (imm 1) (r 1);
        mov 2 (imm 3);
        store ~ofs:0x10000000 Gpu_isa.Instr.Global (imm 2) (r 2);
        exit_ ])

let test_disjoint_lifetimes_share () =
  let t = Allocator.allocate sequential in
  Alcotest.(check int) "one register suffices" 1 t.Allocator.n_colors;
  let minimized = Allocator.minimize sequential in
  Alcotest.(check int) "program shrunk" 1 minimized.Program.n_regs

let test_interference () =
  Alcotest.(check bool) "disjoint names don't interfere" false
    (Allocator.interfere sequential 0 1);
  (* In the straight-line kernel r0 and r1 are simultaneously live. *)
  Alcotest.(check bool) "overlapping names interfere" true
    (Allocator.interfere Util.straight 0 1)

let test_colors_bounded_by_pressure () =
  (* Coloring never needs fewer registers than the peak pressure, and for
     our structured kernels the greedy order achieves it or comes close. *)
  List.iter
    (fun spec ->
      let prog = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.program in
      let peak = Liveness'.max_pressure (Liveness'.analyze ~widen:false prog) in
      let t = Allocator.allocate prog in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d colors >= pressure %d" spec.Workloads.Spec.name
           t.Allocator.n_colors peak)
        true
        (t.Allocator.n_colors >= peak);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d colors <= names %d" spec.Workloads.Spec.name
           t.Allocator.n_colors prog.Program.n_regs)
        true
        (t.Allocator.n_colors <= prog.Program.n_regs))
    Workloads.Registry.all

let test_workloads_already_optimal () =
  (* The Table I kernels are authored like allocator output: re-allocation
     cannot shave more than one register off any of them. *)
  List.iter
    (fun spec ->
      let prog = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.program in
      let t = Allocator.allocate prog in
      if t.Allocator.n_colors < prog.Program.n_regs - 1 then
        Alcotest.failf "%s: allocator found %d << %d names"
          spec.Workloads.Spec.name t.Allocator.n_colors prog.Program.n_regs)
    Workloads.Registry.all

let test_semantics_preserved_workloads () =
  List.iter
    (fun name ->
      let spec = Workloads.Registry.find name in
      let prog = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.program in
      let minimized = Allocator.minimize prog in
      let params = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.params in
      let a = Util.run_with ~params (Util.static_policy prog) prog in
      let b = Util.run_with ~params (Util.static_policy minimized) minimized in
      Util.check_same_traces (name ^ " minimized") (Util.traces a) (Util.traces b))
    [ "Gaussian"; "SPMV"; "HeartWall" ]

let prop_allocation_preserves_semantics =
  Util.qtest ~count:40 ~print:Util.print_program
    "allocation preserves behaviour (random kernels)"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      let minimized = Allocator.minimize prog in
      let a = Util.run_with (Util.static_policy prog) prog in
      let b = Util.run_with (Util.static_policy minimized) minimized in
      Util.traces a = Util.traces b)

let prop_coloring_valid =
  Util.qtest ~count:40 ~print:Util.print_program
    "interfering names get distinct colors"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      let t = Allocator.allocate prog in
      let ok = ref true in
      for a = 0 to prog.Program.n_regs - 1 do
        for b = a + 1 to prog.Program.n_regs - 1 do
          if Allocator.interfere prog a b && t.Allocator.coloring.(a) = t.Allocator.coloring.(b)
          then ok := false
        done
      done;
      !ok)

let suite =
  [ Alcotest.test_case "disjoint lifetimes share a register" `Quick
      test_disjoint_lifetimes_share;
    Alcotest.test_case "interference queries" `Quick test_interference;
    Alcotest.test_case "colors bounded by pressure and names" `Quick
      test_colors_bounded_by_pressure;
    Alcotest.test_case "workloads are allocator-tight" `Quick
      test_workloads_already_optimal;
    Alcotest.test_case "semantics preserved (workloads)" `Slow
      test_semantics_preserved_workloads;
    prop_allocation_preserves_semantics;
    prop_coloring_valid ]
