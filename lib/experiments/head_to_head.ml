module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique
module Stats = Gpu_sim.Stats
module E = Gpu_uarch.Energy_model

type row = {
  tech : Technique.t;
  mean_occupancy : float;
  mean_reduction : float;      (* cycle reduction vs baseline, % *)
  storage_bits : int;
  mean_energy_nj : float;
  mean_energy_overhead : float;  (* total energy vs baseline, % *)
}

(* Every technique in {!Technique.all}, so a new one appears here without
   the figure changing. *)
let specs () = Workloads.Registry.occupancy_limited

let rows cfg =
  let arch = cfg.Exp_config.arch in
  let specs = specs () in
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         List.map
           (fun t -> Engine.cell ~arch t spec)
           Technique.all)
       specs);
  let base_runs =
    List.map (fun spec -> Engine.run cfg ~arch Technique.Baseline spec) specs
  in
  let base_energy =
    List.map (fun b -> (Outcome.energy arch b).E.total_nj) base_runs
  in
  List.map
    (fun t ->
      let runs = List.map (fun spec -> Engine.run cfg ~arch t spec) specs in
      let energies = List.map (fun r -> (Outcome.energy arch r).E.total_nj) runs in
      {
        tech = t;
        mean_occupancy =
          Table.mean
            (List.map (fun r -> r.Outcome.theoretical_occupancy) runs);
        mean_reduction =
          Table.mean
            (List.map2
               (fun baseline r -> Outcome.reduction_pct ~baseline r)
               base_runs runs);
        storage_bits = Technique.storage_bits arch t;
        mean_energy_nj = Table.mean energies;
        mean_energy_overhead =
          Table.mean
            (List.map2 (fun e b -> (e -. b) /. b *. 100.) energies base_energy);
      })
    Technique.all

(* --- divergence rows ---------------------------------------------------- *)

(* The Table I kernels are warp-uniform, so the head-to-head above says
   nothing about behaviour under real branch divergence. These rows run
   the divergent registry (kernels that read [%laneid]) under [--simt]:
   same techniques, but warps now split, reconverge and predicate lanes
   off, so per-lane occupancy becomes a first-class column. RegDem's row
   measures timing only — its warp-granular spill window is value-unsound
   under divergence (a lane-divergent demoted register is clobbered on
   spill), which is why the fuzz oracle excludes it from the divergent
   value differential. *)

let simt_options = { Technique.default_options with Technique.simt = true }

type divergent_row = {
  d_tech : Technique.t;
  d_mean_occupancy : float;
  d_mean_reduction : float;  (* cycle reduction vs the SIMT baseline, % *)
  d_mean_lane_occ : float;   (* active / (active + predicated) lane-cycles *)
}

let lane_occupancy (r : Outcome.t) =
  let a = float_of_int r.Outcome.counters.Stats.active_lane_cycles
  and p = float_of_int r.Outcome.counters.Stats.predicated_lane_cycles in
  if a +. p > 0. then a /. (a +. p) else 1.

let divergent_rows cfg =
  let arch = cfg.Exp_config.arch in
  let specs = Workloads.Registry.divergent in
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         List.map
           (fun t -> Engine.cell ~options:simt_options ~arch t spec)
           Technique.all)
       specs);
  let base_runs =
    List.map
      (fun spec ->
        Engine.run cfg ~options:simt_options ~arch Technique.Baseline spec)
      specs
  in
  List.map
    (fun t ->
      let runs =
        List.map
          (fun spec -> Engine.run cfg ~options:simt_options ~arch t spec)
          specs
      in
      {
        d_tech = t;
        d_mean_occupancy =
          Table.mean
            (List.map (fun r -> r.Outcome.theoretical_occupancy) runs);
        d_mean_reduction =
          Table.mean
            (List.map2
               (fun baseline r -> Outcome.reduction_pct ~baseline r)
               base_runs runs);
        d_mean_lane_occ = Table.mean (List.map lane_occupancy runs);
      })
    Technique.all

let print cfg =
  let rs = rows cfg in
  print_endline
    "Head-to-head: all techniques on the occupancy-limited set (means)";
  print_endline
    (Table.render
       ~columns:
         [ ("technique", Table.Left); ("occupancy", Table.Right);
           ("cycle red", Table.Right); ("storage bits", Table.Right);
           ("energy nJ", Table.Right); ("energy vs base", Table.Right) ]
       (List.map
          (fun r ->
            [ Technique.name r.tech;
              Table.occ r.mean_occupancy;
              Table.pct r.mean_reduction;
              Table.int_cell r.storage_bits;
              Printf.sprintf "%.1f" r.mean_energy_nj;
              Table.pct r.mean_energy_overhead ])
          rs));
  print_endline
    "energy: per-access RF/shared model (see Gpu_uarch.Energy_model) —\n\
     relative comparisons between techniques, not absolute joules";
  print_newline ();
  let drs = divergent_rows cfg in
  print_endline
    "Divergence head-to-head: divergent kernels (read %laneid) under --simt";
  print_endline
    (Table.render
       ~columns:
         [ ("technique", Table.Left); ("occupancy", Table.Right);
           ("cycle red", Table.Right); ("lane occ", Table.Right) ]
       (List.map
          (fun r ->
            [ Technique.name r.d_tech;
              Table.occ r.d_mean_occupancy;
              Table.pct r.d_mean_reduction;
              Table.occ r.d_mean_lane_occ ])
          drs));
  print_endline
    "regdem row: timing only — its warp-granular spill window collapses\n\
     lane-divergent values (a demoted register spills one value per warp),\n\
     so divergence vanishes and values are unsound; the fuzz value oracle\n\
     excludes it under divergence for the same reason"
