module Pressure = Gpu_analysis.Pressure
module Liveness = Gpu_analysis.Liveness

type row = {
  app : string;
  dynamic_instructions : int;
  mean_ratio : float;
  below_half : float;
  sparkline : string;
}

let row_of cfg spec =
  (* One SM and a small grid suffice: the profile belongs to a single
     sample warp executing the unmodified kernel. *)
  let arch = { cfg.Exp_config.arch with Gpu_uarch.Arch_config.n_sms = 1 } in
  let kernel = (Workloads.Spec.with_grid spec 4).Workloads.Spec.kernel in
  let allocated = Gpu_sim.Kernel.regs_per_thread kernel in
  let config =
    {
      (Gpu_sim.Gpu.default_config arch
         (Gpu_sim.Policy.Static { regs_per_thread = allocated }))
      with
      trace_warp0 = true;
    }
  in
  let app = spec.Workloads.Spec.name in
  let key =
    Printf.sprintf "fig1/%s/%s" app (Engine.input_digest config kernel)
  in
  Engine.memo ~key (fun () ->
      let stats = Gpu_sim.Gpu.run config kernel in
      let liveness = Liveness.analyze kernel.Gpu_sim.Kernel.program in
      let profile =
        Pressure.dynamic_profile ~liveness ~allocated (Gpu_sim.Stats.trace stats)
      in
      {
        app;
        dynamic_instructions = Array.length profile;
        mean_ratio = Pressure.mean_ratio profile;
        below_half = Pressure.fraction_below ~threshold:0.5 profile;
        sparkline = Pressure.sparkline ~width:72 profile;
      })

let rows cfg = List.map (row_of cfg) Workloads.Registry.figure1

let print cfg =
  let rows = rows cfg in
  print_endline "Figure 1: live/allocated registers along a sample warp's execution";
  List.iter
    (fun r ->
      Printf.printf "\n%s: %d dynamic instructions, mean %s live, <=50%% for %s of time\n"
        r.app r.dynamic_instructions (Table.occ r.mean_ratio) (Table.occ r.below_half);
      Printf.printf "  |%s|\n" r.sparkline)
    rows
