module Arch_config = Gpu_uarch.Arch_config
module Occupancy = Gpu_uarch.Occupancy

type candidate = {
  es : int;
  bs : int;
  warps : int;
  sections : int;
}

type choice = {
  rounded_regs : int;
  bs : int;
  es : int;
  warps : int;
  sections : int;
  baseline_warps : int;
  candidates : candidate list;
}

let fractions = [ 0.1; 0.15; 0.2; 0.25; 0.3; 0.35 ]

let candidate_sizes ~rounded_regs =
  fractions
  |> List.map (fun f -> int_of_float (float_of_int rounded_regs *. f))
  |> List.filter (fun e -> e > 0 && e mod 2 = 0)
  |> List.sort_uniq compare

let evaluate cfg ~demand ~min_bs ~rounded_regs es =
  let bs = rounded_regs - es in
  if bs < 1 || bs < min_bs then None
  else begin
    let base, sections = Occupancy.srp_sections cfg ~demand ~bs ~es in
    (* Deadlock rule 1: at least one warp's extended set must fit. *)
    if sections < 1 then None
    else Some { es; bs; warps = base.Occupancy.warps; sections }
  end

let baseline_warps cfg ~demand =
  (Occupancy.calculate ~round_regs:true cfg demand).Occupancy.warps

let choice cfg ~demand ~rounded_regs candidates (pick : candidate) =
  { rounded_regs; bs = pick.bs; es = pick.es; warps = pick.warps;
    sections = pick.sections; baseline_warps = baseline_warps cfg ~demand;
    candidates }

let choose cfg ~demand ~min_bs () =
  let rounded_regs = Arch_config.round_regs cfg demand.Occupancy.regs_per_thread in
  let candidates =
    candidate_sizes ~rounded_regs
    |> List.filter_map (evaluate cfg ~demand ~min_bs ~rounded_regs)
  in
  match candidates with
  | [] -> None
  | _ :: _ ->
      let best_warps =
        List.fold_left (fun acc (c : candidate) -> max acc c.warps) 0 candidates
      in
      let top = List.filter (fun (c : candidate) -> c.warps = best_warps) candidates in
      let passes_half (c : candidate) = 2 * c.sections > c.warps in
      let pick =
        match List.find_opt passes_half top with
        | Some c -> c  (* candidates ascend by es: smallest passing wins *)
        | None ->
            List.fold_left
              (fun (acc : candidate) (c : candidate) ->
                if c.sections > acc.sections then c else acc)
              (List.hd top) (List.tl top)
      in
      Some (choice cfg ~demand ~rounded_regs candidates pick)

let with_es cfg ~demand ~min_bs ~es =
  let rounded_regs = Arch_config.round_regs cfg demand.Occupancy.regs_per_thread in
  Option.map
    (fun c -> choice cfg ~demand ~rounded_regs [ c ] c)
    (evaluate cfg ~demand ~min_bs ~rounded_regs es)

let raises_occupancy c = c.warps > c.baseline_warps

let pp ppf c =
  Format.fprintf ppf "R=%d |Bs|=%d |Es|=%d warps=%d (baseline %d) sections=%d"
    c.rounded_regs c.bs c.es c.warps c.baseline_warps c.sections
