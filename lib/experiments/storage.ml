module S = Gpu_uarch.Storage_cost

let print cfg =
  let arch = cfg.Exp_config.arch in
  print_endline "Hardware storage cost per SM (48-warp baseline)";
  (* Every technique — zero-cost entries (baseline, RegDem) print as 0
     bits rather than vanishing. *)
  List.iter
    (fun t ->
      Format.printf "%a@." S.pp (S.bits arch (Regmutex.Technique.to_storage t)))
    Regmutex.Technique.all;
  Format.printf "RFV / RegMutex ratio: %.1fx (paper: >81x)@."
    (S.ratio arch S.Regmutex_default S.Rfv);
  Format.printf "RegMutex / paired ratio: %.1fx (paper: >20x)@."
    (S.ratio arch S.Regmutex_paired S.Regmutex_default)
