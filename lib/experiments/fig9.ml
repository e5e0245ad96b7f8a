module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique

type row_a = {
  app : string;
  owf_red : float;
  rfv_red : float;
  regmutex_red : float;
}

type row_b = {
  app : string;
  none_inc : float;
  owf_inc : float;
  rfv_inc : float;
  regmutex_inc : float;
}

let row_a_of cfg spec =
  let arch = cfg.Exp_config.arch in
  let baseline = Engine.run cfg ~arch Technique.Baseline spec in
  let red t = Outcome.reduction_pct ~baseline (Engine.run cfg ~arch t spec) in
  {
    app = spec.Workloads.Spec.name;
    owf_red = red Technique.Owf;
    rfv_red = red Technique.Rfv;
    regmutex_red = red Technique.Regmutex;
  }

let row_b_of cfg spec =
  let full = Engine.run cfg ~arch:cfg.Exp_config.arch Technique.Baseline spec in
  let inc t =
    Outcome.increase_pct ~baseline:full
      (Engine.run cfg ~arch:cfg.Exp_config.half_arch t spec)
  in
  {
    app = spec.Workloads.Spec.name;
    none_inc = inc Technique.Baseline;
    owf_inc = inc Technique.Owf;
    rfv_inc = inc Technique.Rfv;
    regmutex_inc = inc Technique.Regmutex;
  }

let techniques =
  [ Technique.Baseline; Technique.Owf; Technique.Rfv; Technique.Regmutex ]

let rows_a cfg =
  let arch = cfg.Exp_config.arch in
  Engine.prefetch cfg
    (List.concat_map
       (fun spec -> List.map (fun t -> Engine.cell ~arch t spec) techniques)
       Workloads.Registry.occupancy_limited);
  List.map (row_a_of cfg) Workloads.Registry.occupancy_limited

let rows_b cfg =
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         Engine.cell ~arch:cfg.Exp_config.arch Technique.Baseline spec
         :: List.map
              (fun t -> Engine.cell ~arch:cfg.Exp_config.half_arch t spec)
              techniques)
       Workloads.Registry.regfile_sensitive);
  List.map (row_b_of cfg) Workloads.Registry.regfile_sensitive

let print_a cfg =
  let rows = rows_a cfg in
  print_endline "Figure 9(a): cycle reduction vs related work (baseline arch)";
  print_endline
    (Table.render
       ~columns:
         [ ("app", Table.Left); ("OWF", Table.Right); ("RFV", Table.Right);
           ("RegMutex", Table.Right) ]
       (List.map
          (fun (r : row_a) ->
            [ r.app; Table.pct r.owf_red; Table.pct r.rfv_red;
              Table.pct r.regmutex_red ])
          rows));
  Printf.printf "means: OWF %s, RFV %s, RegMutex %s (paper: 1.9%% / 16.2%% / 12.8%%)\n"
    (Table.pct (Table.mean (List.map (fun (r : row_a) -> r.owf_red) rows)))
    (Table.pct (Table.mean (List.map (fun (r : row_a) -> r.rfv_red) rows)))
    (Table.pct (Table.mean (List.map (fun (r : row_a) -> r.regmutex_red) rows)))

let print_b cfg =
  let rows = rows_b cfg in
  print_endline "Figure 9(b): cycle increase with half the register file";
  print_endline
    (Table.render
       ~columns:
         [ ("app", Table.Left); ("none", Table.Right); ("OWF", Table.Right);
           ("RFV", Table.Right); ("RegMutex", Table.Right) ]
       (List.map
          (fun r ->
            [ r.app; Table.pct r.none_inc; Table.pct r.owf_inc;
              Table.pct r.rfv_inc; Table.pct r.regmutex_inc ])
          rows));
  Printf.printf
    "means: none %s, OWF %s, RFV %s, RegMutex %s (paper: 22.9%% / 20.6%% / 5.9%% / 10.8%%)\n"
    (Table.pct (Table.mean (List.map (fun r -> r.none_inc) rows)))
    (Table.pct (Table.mean (List.map (fun r -> r.owf_inc) rows)))
    (Table.pct (Table.mean (List.map (fun r -> r.rfv_inc) rows)))
    (Table.pct (Table.mean (List.map (fun r -> r.regmutex_inc) rows)))
