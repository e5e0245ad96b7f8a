module Program = Gpu_isa.Program
module Instr = Gpu_isa.Instr
module Regset = Gpu_isa.Regset
module Liveness = Gpu_analysis.Liveness
module Cfg = Gpu_analysis.Cfg
module Facts = Gpu_analysis.Facts

let ext_predicate ~bs prog (liveness : Liveness.t) =
  let n = Program.length prog in
  Array.init n (fun i ->
      let footprint =
        Regset.union
          (Instr.regs (Program.get prog i))
          (Regset.union liveness.Liveness.live_in.(i) liveness.Liveness.live_out.(i))
      in
      (not (Regset.is_empty footprint)) && Regset.max_elt footprint >= bs)

let ext_fraction ext =
  let n = Array.length ext in
  if n = 0 then 0.
  else
    float_of_int (Array.fold_left (fun acc e -> if e then acc + 1 else acc) 0 ext)
    /. float_of_int n

type outcome = {
  program : Gpu_isa.Program.t;
  n_acquires : int;
  n_releases : int;
  ext_static_fraction : float;
}

let inject ~bs facts liveness =
  let prog = Facts.program facts in
  let ext = ext_predicate ~bs prog liveness in
  let n = Program.length prog in
  if not (Array.exists (fun e -> e) ext) then
    { program = prog; n_acquires = 0; n_releases = 0; ext_static_fraction = 0. }
  else begin
    let preds = (Facts.cfg facts).Cfg.ipreds in
    let inserts = ref [] in
    let n_acquires = ref 0 and n_releases = ref 0 in
    for i = 0 to n - 1 do
      if ext.(i) then begin
        let needs_acquire = i = 0 || List.exists (fun p -> not ext.(p)) preds.(i) in
        if needs_acquire then begin
          inserts := (i, [ Instr.Acquire ]) :: !inserts;
          incr n_acquires
        end
      end
      else if List.exists (fun p -> ext.(p)) preds.(i) then begin
        inserts := (i, [ Instr.Release ]) :: !inserts;
        incr n_releases
      end
    done;
    {
      program = Program.insert_before prog (List.rev !inserts);
      n_acquires = !n_acquires;
      n_releases = !n_releases;
      ext_static_fraction = ext_fraction ext;
    }
  end
