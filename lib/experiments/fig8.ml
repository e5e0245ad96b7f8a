module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique

type row = {
  app : string;
  full_cycles : int;
  half_cycles : int;
  half_rm_cycles : int;
  increase_none_pct : float;
  increase_rm_pct : float;
  occ_half : float;
  occ_half_rm : float;
}

let row_of cfg spec =
  let full = Engine.run cfg ~arch:cfg.Exp_config.arch Technique.Baseline spec in
  let half = Engine.run cfg ~arch:cfg.Exp_config.half_arch Technique.Baseline spec in
  let half_rm = Engine.run cfg ~arch:cfg.Exp_config.half_arch Technique.Regmutex spec in
  {
    app = spec.Workloads.Spec.name;
    full_cycles = full.Outcome.cycles;
    half_cycles = half.Outcome.cycles;
    half_rm_cycles = half_rm.Outcome.cycles;
    increase_none_pct = Outcome.increase_pct ~baseline:full half;
    increase_rm_pct = Outcome.increase_pct ~baseline:full half_rm;
    occ_half = half.Outcome.theoretical_occupancy;
    occ_half_rm = half_rm.Outcome.theoretical_occupancy;
  }

let rows cfg =
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         [ Engine.cell ~arch:cfg.Exp_config.arch Technique.Baseline spec;
           Engine.cell ~arch:cfg.Exp_config.half_arch Technique.Baseline spec;
           Engine.cell ~arch:cfg.Exp_config.half_arch Technique.Regmutex spec ])
       Workloads.Registry.regfile_sensitive);
  List.map (row_of cfg) Workloads.Registry.regfile_sensitive

let print cfg =
  let rows = rows cfg in
  print_endline "Figure 8: half-size register file, with and without RegMutex";
  print_endline
    (Table.render
       ~columns:
         [ ("app", Table.Left); ("full cyc", Table.Right); ("half cyc", Table.Right);
           ("half+rm", Table.Right); ("incr none", Table.Right);
           ("incr rm", Table.Right); ("occ half", Table.Right);
           ("occ rm", Table.Right) ]
       (List.map
          (fun r ->
            [ r.app; Table.int_cell r.full_cycles; Table.int_cell r.half_cycles;
              Table.int_cell r.half_rm_cycles; Table.pct r.increase_none_pct;
              Table.pct r.increase_rm_pct; Table.occ r.occ_half;
              Table.occ r.occ_half_rm ])
          rows));
  Printf.printf "mean cycle increase: none %s, RegMutex %s (paper: ~23%% vs ~9%%)\n"
    (Table.pct (Table.mean (List.map (fun r -> r.increase_none_pct) rows)))
    (Table.pct (Table.mean (List.map (fun r -> r.increase_rm_pct) rows)))
