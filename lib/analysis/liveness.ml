module Program = Gpu_isa.Program
module Instr = Gpu_isa.Instr
module Regset = Gpu_isa.Regset

type t = {
  live_in : Regset.t array;
  live_out : Regset.t array;
}

let of_cfg cfg =
  let prog = cfg.Cfg.prog in
  let n = Program.length prog in
  let live_in = Array.make n Regset.empty in
  let live_out = Array.make n Regset.empty in
  let uses = Array.init n (fun i -> Instr.uses (Program.get prog i)) in
  let defs = Array.init n (fun i -> Instr.defs (Program.get prog i)) in
  let succs = cfg.Cfg.isuccs in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left (fun acc s -> Regset.union acc live_in.(s)) Regset.empty succs.(i)
      in
      let inn = Regset.union uses.(i) (Regset.diff out defs.(i)) in
      if not (Regset.equal out live_out.(i) && Regset.equal inn live_in.(i)) then begin
        live_out.(i) <- out;
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  { live_in; live_out }

let widened cfg dom narrow =
  let t = { live_in = Array.copy narrow.live_in; live_out = Array.copy narrow.live_out } in
  (* Each branch region's instructions, the registers they define and the
     region's join are fixed by the CFG; only the live sets grow. *)
  let regions =
    List.map
      (fun b ->
        let ipd = Dominance.ipostdom dom b.Cfg.id in
        let instrs =
          List.concat_map
            (fun bid -> Cfg.instrs cfg (Cfg.block cfg bid))
            (Cfg.region cfg ~from:b.Cfg.id ~avoiding:(Option.value ipd ~default:(-1)))
        in
        let defined =
          List.fold_left
            (fun acc i -> Regset.union acc (Instr.defs (Program.get cfg.Cfg.prog i)))
            Regset.empty instrs
        in
        (b.Cfg.last, instrs, defined, Option.map (fun p -> (Cfg.block cfg p).Cfg.first) ipd))
      (Cfg.conditional_blocks cfg)
  in
  (* One sweep; true when any live set grew. Registers live across the
     branch, and registers defined in the region and live at the join,
     are live throughout the region. *)
  let widen_once () =
    List.fold_left
      (fun grew (branch, instrs, defined, join) ->
        let at_join = match join with Some j -> t.live_in.(j) | None -> Regset.empty in
        let set = Regset.union t.live_out.(branch) (Regset.inter defined at_join) in
        List.fold_left
          (fun grew i ->
            let inn = Regset.union t.live_in.(i) set in
            let out = Regset.union t.live_out.(i) set in
            if Regset.equal inn t.live_in.(i) && Regset.equal out t.live_out.(i) then grew
            else begin
              t.live_in.(i) <- inn;
              t.live_out.(i) <- out;
              true
            end)
          grew instrs)
      false regions
  in
  let rec fix budget = if budget > 0 && widen_once () then fix (budget - 1) in
  fix 16;
  t

let analyze ?(widen = true) prog =
  let cfg = Cfg.of_program prog in
  if widen then widened cfg (Dominance.compute cfg) (of_cfg cfg) else of_cfg cfg

let pressure_at t i =
  max (Regset.cardinal t.live_in.(i)) (Regset.cardinal t.live_out.(i))

let profile t = Array.init (Array.length t.live_in) (pressure_at t)

let max_pressure t = Array.fold_left max 0 (profile t)

let live_at_barriers prog t =
  let acc = ref 0 in
  for i = 0 to Program.length prog - 1 do
    if Program.get prog i = Instr.Bar then acc := max !acc (pressure_at t i)
  done;
  !acc

let pp prog ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to Program.length prog - 1 do
    Format.fprintf ppf "%4d: %-40s live_in=%a@," i
      (Instr.to_string (Program.get prog i))
      Regset.pp t.live_in.(i)
  done;
  Format.fprintf ppf "@]"
