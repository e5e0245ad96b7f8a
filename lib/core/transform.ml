module Program = Gpu_isa.Program
module Liveness = Gpu_analysis.Liveness
module Facts = Gpu_analysis.Facts

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
    max_pressure = Liveness.max_pressure (Facts.liveness (Facts.of_program prog));
  }

(* The whole compile (analysis, permutation, mov-compaction, injection,
   check) as one profile row. Registered before any domain spawns. *)
let phase = Telemetry.Profile.phase "regmutex.transform"

type Facts.memo += Rewritten of (plan * Facts.t) | Permuted of Facts.t

(* Permutation, mov-compaction and injection: a function of the program,
   the options and |Bs| alone, so the source facts keep it, and a caller
   compiling one source at several |Es| (or twice) rewrites it once. *)
let rewrite options ~bs facts =
  let prog = Facts.program facts in
  let liveness0 = Facts.liveness ~widen:options.widen facts in
  let facts1 =
    if not options.permute then facts
    else
      (* Several |Bs| often rank alike: one permuted program each. *)
      let perm = Compaction.pressure_ranking ~bs prog liveness0 in
      let key =
        String.concat " " ("permuted" :: List.map string_of_int (Array.to_list perm))
      in
      match
        Facts.memo facts key (fun () ->
            Permuted (Facts.derive facts (Compaction.permute prog perm)))
      with
      | Permuted f -> f
      | _ -> assert false
  in
  let facts2, n_movs =
    if options.mov_compact then Compaction.mov_compact ~bs facts1 else (facts1, 0)
  in
  let injected =
    Injection.inject ~bs facts2 (Facts.liveness ~widen:options.widen facts2)
  in
  ( {
      original = prog;
      transformed = injected.Injection.program;
      bs;
      es = 0;
      n_acquires = injected.Injection.n_acquires;
      n_releases = injected.Injection.n_releases;
      n_movs;
      ext_static_fraction = injected.Injection.ext_static_fraction;
      max_pressure = Liveness.max_pressure liveness0;
    },
    Facts.derive facts2 injected.Injection.program )

let compile ?(options = default_options) ~bs ~es facts =
  Telemetry.Profile.time phase @@ fun () ->
  let n_regs = (Facts.program facts).Program.n_regs in
  if bs + es < n_regs then
    invalid_arg
      (Printf.sprintf "Transform.apply: |Bs|+|Es| = %d cannot hold %d registers"
         (bs + es) n_regs);
  if bs < 1 then invalid_arg "Transform.apply: |Bs| must be positive";
  let key =
    Printf.sprintf "transform %b %b %b %d" options.widen options.permute
      options.mov_compact bs
  in
  match Facts.memo facts key (fun () -> Rewritten (rewrite options ~bs facts)) with
  | Rewritten (plan, transformed) -> (
      match Checker.check_facts ~bs ~es transformed with
      | [] -> ({ plan with es }, transformed)
      | violations -> raise (Unsound violations))
  | _ -> assert false

let apply ?options ~bs ~es prog = fst (compile ?options ~bs ~es (Facts.of_program prog))

let pp_plan ppf p =
  Format.fprintf ppf
    "%s: |Bs|=%d |Es|=%d acquires=%d releases=%d movs=%d ext=%.0f%% (%d -> %d instrs)"
    p.original.Program.name p.bs p.es p.n_acquires p.n_releases p.n_movs
    (100. *. p.ext_static_fraction)
    (Program.length p.original)
    (Program.length p.transformed)
