(* The per-access energy model: breakdown arithmetic against hand-computed
   values, monotonicity in spill traffic, and the per-technique activity
   derivation (renaming charges for RFV, tracking charges for RegMutex,
   spill charges for RegDem). *)

module E = Gpu_uarch.Energy_model
module Technique = Regmutex.Technique
module Runner = Regmutex.Runner
module Stats = Gpu_sim.Stats
module Spec = Workloads.Spec

let arch = Util.small_arch

let test_breakdown_arithmetic () =
  let c =
    { E.zero_counts with
      E.rf_reads = 1000;
      rf_writes = 500;
      shared_reads = 100;
      shared_writes = 50;
      fill_loads = 10;
      spill_stores = 20;
      cycles = 1000;
      storage_bits = 384 }
  in
  let b = E.of_counts c in
  (* defaults: rf 8.0/9.6 pJ, shared 20.0/22.4 pJ, leakage 1e-5 pJ/bit/cyc *)
  Alcotest.(check (float 1e-9)) "RF reads" 8.0 b.E.rf_read_nj;
  Alcotest.(check (float 1e-9)) "RF writes" 4.8 b.E.rf_write_nj;
  Alcotest.(check (float 1e-9)) "shared reads" 2.0 b.E.shared_read_nj;
  Alcotest.(check (float 1e-9)) "shared writes" 1.12 b.E.shared_write_nj;
  Alcotest.(check (float 1e-9)) "fills priced as shared reads" 0.2 b.E.fill_nj;
  Alcotest.(check (float 1e-9)) "spills priced as shared writes" 0.448 b.E.spill_nj;
  Alcotest.(check (float 1e-9)) "leakage" 0.00384 b.E.leakage_nj;
  Alcotest.(check (float 1e-9)) "direction split: reads" 10.2 (E.read_nj b);
  Alcotest.(check (float 1e-9)) "direction split: writes" 6.368 (E.write_nj b);
  Alcotest.(check (float 1e-9)) "total is the sum"
    (b.E.rf_read_nj +. b.E.rf_write_nj +. b.E.shared_read_nj
    +. b.E.shared_write_nj +. b.E.fill_nj +. b.E.spill_nj +. b.E.structure_nj
    +. b.E.leakage_nj)
    b.E.total_nj;
  Alcotest.(check (float 1e-9)) "zero counts cost nothing" 0.
    (E.of_counts E.zero_counts).E.total_nj

let test_spill_monotonicity () =
  (* More spill traffic can only cost more energy, all else equal. *)
  let at spills fills =
    (E.of_counts
       { E.zero_counts with E.spill_stores = spills; fill_loads = fills })
      .E.total_nj
  in
  let prev = ref (at 0 0) in
  List.iter
    (fun n ->
      let e = at n n in
      Alcotest.(check bool)
        (Printf.sprintf "%d spill/fill pairs cost more than fewer" n)
        true (e > !prev);
      prev := e)
    [ 1; 10; 100; 1000 ]

let test_custom_constants () =
  let constants = { E.default with E.rf_read_pj = 1000. } in
  let c = { E.zero_counts with E.rf_reads = 1 } in
  Alcotest.(check (float 1e-9)) "constants are honoured" 1.0
    (E.of_counts ~constants c).E.rf_read_nj

let run tech kernel = Runner.execute ~max_cycles:2_000_000 arch tech kernel

let test_technique_structure_charges () =
  let spec = Workloads.Registry.find "BFS" in
  let kernel = spec.Spec.kernel in
  let base = run Technique.Baseline kernel in
  let counts t stats = Technique.energy_counts arch t (Stats.counters stats) in
  (* RFV pays a renaming lookup on every RF access; nobody else does. *)
  let rfv = run Technique.Rfv kernel in
  let cb = counts Technique.Baseline base.Runner.stats in
  let cr = counts Technique.Rfv rfv.Runner.stats in
  Alcotest.(check int) "baseline: no renaming traffic" 0 cb.E.rename_accesses;
  Alcotest.(check int) "RFV: every RF access renamed"
    (rfv.Runner.stats.Stats.rf_reads + rfv.Runner.stats.Stats.rf_writes)
    cr.E.rename_accesses;
  Alcotest.(check bool) "RFV structure energy is visible" true
    ((Technique.energy arch Technique.Rfv (Stats.counters rfv.Runner.stats)).E.structure_nj > 0.);
  Alcotest.(check (float 1e-9)) "baseline structure energy is zero" 0.
    (Technique.energy arch Technique.Baseline (Stats.counters base.Runner.stats)).E.structure_nj;
  (* RegMutex pays per acquire/release on its bitmask and LUT. *)
  let rm = run Technique.Regmutex kernel in
  let cm = counts Technique.Regmutex rm.Runner.stats in
  Alcotest.(check int) "RegMutex: tracking follows acquires"
    (rm.Runner.stats.Stats.acquire_execs + rm.Runner.stats.Stats.release_execs)
    cm.E.track_updates;
  (* Storage bits flow into the leakage term. *)
  Alcotest.(check int) "RFV leaks over its renaming table"
    (Technique.storage_bits arch Technique.Rfv)
    cr.E.storage_bits

let test_rf_counters_populated () =
  (* Any run at all reads and writes the register file. *)
  let stats =
    Gpu_sim.Gpu.run
      (Gpu_sim.Gpu.default_config arch (Util.static_policy Util.straight))
      (Gpu_sim.Kernel.make ~name:"t" ~grid_ctas:1 ~cta_threads:32
         Util.straight)
  in
  Alcotest.(check bool) "rf reads counted" true (stats.Stats.rf_reads > 0);
  Alcotest.(check bool) "rf writes counted" true (stats.Stats.rf_writes > 0);
  Alcotest.(check int) "no spill traffic under static" 0
    (stats.Stats.spill_stores + stats.Stats.fill_loads)

let suite =
  [ Alcotest.test_case "breakdown arithmetic" `Quick test_breakdown_arithmetic;
    Alcotest.test_case "monotone in spill traffic" `Quick test_spill_monotonicity;
    Alcotest.test_case "custom constants" `Quick test_custom_constants;
    Alcotest.test_case "per-technique structure charges" `Quick
      test_technique_structure_charges;
    Alcotest.test_case "RF counters populated" `Quick test_rf_counters_populated ]
