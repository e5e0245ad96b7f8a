module Program = Gpu_isa.Program
module Liveness = Gpu_analysis.Liveness

type plan = {
  original : Gpu_isa.Program.t;
  transformed : Gpu_isa.Program.t;
  bs : int;
  es : int;
  n_acquires : int;
  n_releases : int;
  n_movs : int;
  ext_static_fraction : float;
  max_pressure : int;
}

exception Unsound of Checker.violation list

type options = {
  widen : bool;
  permute : bool;
  mov_compact : bool;
}

let default_options = { widen = true; permute = true; mov_compact = true }

let identity prog =
  {
    original = prog;
    transformed = prog;
    bs = prog.Program.n_regs;
    es = 0;
    n_acquires = 0;
    n_releases = 0;
    n_movs = 0;
    ext_static_fraction = 0.;
    max_pressure = Liveness.max_pressure (Liveness.analyze prog);
  }

(* The whole compile (analysis, permutation, mov-compaction, injection,
   check) as one profile row. Registered before any domain spawns. *)
let phase = Telemetry.Profile.phase "regmutex.transform"

let apply ?(options = default_options) ~bs ~es prog =
  Telemetry.Profile.time phase @@ fun () ->
  if bs + es < prog.Program.n_regs then
    invalid_arg
      (Printf.sprintf "Transform.apply: |Bs|+|Es| = %d cannot hold %d registers"
         (bs + es) prog.Program.n_regs);
  if bs < 1 then invalid_arg "Transform.apply: |Bs| must be positive";
  let liveness0 = Liveness.analyze ~widen:options.widen prog in
  let prog1 =
    if options.permute then
      Compaction.permute prog (Compaction.pressure_ranking ~bs prog liveness0)
    else prog
  in
  let prog2, n_movs =
    if options.mov_compact then Compaction.mov_compact ~bs prog1 else (prog1, 0)
  in
  let liveness2 = Liveness.analyze ~widen:options.widen prog2 in
  let injected = Injection.inject ~bs prog2 liveness2 in
  (match Checker.check ~bs ~es injected.Injection.program with
  | [] -> ()
  | violations -> raise (Unsound violations));
  {
    original = prog;
    transformed = injected.Injection.program;
    bs;
    es;
    n_acquires = injected.Injection.n_acquires;
    n_releases = injected.Injection.n_releases;
    n_movs;
    ext_static_fraction = injected.Injection.ext_static_fraction;
    max_pressure = Liveness.max_pressure liveness0;
  }

let pp_plan ppf p =
  Format.fprintf ppf
    "%s: |Bs|=%d |Es|=%d acquires=%d releases=%d movs=%d ext=%.0f%% (%d -> %d instrs)"
    p.original.Program.name p.bs p.es p.n_acquires p.n_releases p.n_movs
    (100. *. p.ext_static_fraction)
    (Program.length p.original)
    (Program.length p.transformed)
