module Program = Gpu_isa.Program

let sentinel p = Program.length p

let of_cfg cfg dom =
  let n = Program.length cfg.Cfg.prog in
  let t = Array.make (max n 1) n in
  List.iter
    (fun (b : Cfg.block) ->
      t.(b.Cfg.last) <-
        (match Dominance.ipostdom dom b.Cfg.id with
        | Some pd -> (Cfg.block cfg pd).Cfg.first
        | None -> n))
    (Cfg.conditional_blocks cfg);
  t

let table p =
  let cfg = Cfg.of_program p in
  of_cfg cfg (Dominance.compute cfg)
