module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique

type row_a = {
  app : string;
  paired_red : float;
  default_red : float;
  occ_paired : float;
}

type row_b = {
  app : string;
  paired_inc : float;
  default_inc : float;
  occ_paired : float;
}

let row_a_of cfg spec =
  let arch = cfg.Exp_config.arch in
  let baseline = Engine.run cfg ~arch Technique.Baseline spec in
  let paired = Engine.run cfg ~arch Technique.Regmutex_paired spec in
  let default_rm = Engine.run cfg ~arch Technique.Regmutex spec in
  {
    app = spec.Workloads.Spec.name;
    paired_red = Outcome.reduction_pct ~baseline paired;
    default_red = Outcome.reduction_pct ~baseline default_rm;
    occ_paired = paired.Outcome.theoretical_occupancy;
  }

let row_b_of cfg spec =
  let full = Engine.run cfg ~arch:cfg.Exp_config.arch Technique.Baseline spec in
  let paired = Engine.run cfg ~arch:cfg.Exp_config.half_arch Technique.Regmutex_paired spec in
  let default_rm = Engine.run cfg ~arch:cfg.Exp_config.half_arch Technique.Regmutex spec in
  {
    app = spec.Workloads.Spec.name;
    paired_inc = Outcome.increase_pct ~baseline:full paired;
    default_inc = Outcome.increase_pct ~baseline:full default_rm;
    occ_paired = paired.Outcome.theoretical_occupancy;
  }

let rows_a cfg =
  let arch = cfg.Exp_config.arch in
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         [ Engine.cell ~arch Technique.Baseline spec;
           Engine.cell ~arch Technique.Regmutex_paired spec;
           Engine.cell ~arch Technique.Regmutex spec ])
       Workloads.Registry.occupancy_limited);
  List.map (row_a_of cfg) Workloads.Registry.occupancy_limited

let rows_b cfg =
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         [ Engine.cell ~arch:cfg.Exp_config.arch Technique.Baseline spec;
           Engine.cell ~arch:cfg.Exp_config.half_arch Technique.Regmutex_paired spec;
           Engine.cell ~arch:cfg.Exp_config.half_arch Technique.Regmutex spec ])
       Workloads.Registry.regfile_sensitive);
  List.map (row_b_of cfg) Workloads.Registry.regfile_sensitive

let print cfg =
  let a = rows_a cfg in
  print_endline "Figure 12(a): paired-warps specialization (baseline arch)";
  print_endline
    (Table.render
       ~columns:
         [ ("app", Table.Left); ("paired red.", Table.Right);
           ("default red.", Table.Right); ("occ paired", Table.Right) ]
       (List.map
          (fun (r : row_a) ->
            [ r.app; Table.pct r.paired_red; Table.pct r.default_red;
              Table.occ r.occ_paired ])
          a));
  Printf.printf "means: paired %s, default %s (paper: ~8%% vs ~12%%)\n\n"
    (Table.pct (Table.mean (List.map (fun (r : row_a) -> r.paired_red) a)))
    (Table.pct (Table.mean (List.map (fun (r : row_a) -> r.default_red) a)));
  let b = rows_b cfg in
  print_endline "Figure 12(b): paired-warps specialization (half register file)";
  print_endline
    (Table.render
       ~columns:
         [ ("app", Table.Left); ("paired incr", Table.Right);
           ("default incr", Table.Right); ("occ paired", Table.Right) ]
       (List.map
          (fun r ->
            [ r.app; Table.pct r.paired_inc; Table.pct r.default_inc;
              Table.occ r.occ_paired ])
          b));
  Printf.printf "means: paired %s, default %s (paper: ~17%% vs ~9%%)\n"
    (Table.pct (Table.mean (List.map (fun r -> r.paired_inc) b)))
    (Table.pct (Table.mean (List.map (fun r -> r.default_inc) b)))
