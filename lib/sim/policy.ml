module Arch_config = Gpu_uarch.Arch_config
module Srp = Gpu_uarch.Srp
module Srp_paired = Gpu_uarch.Srp_paired
module Soa = Warp.Soa

type t =
  | Static of { regs_per_thread : int }
  | Srp of { bs : int; es : int; verify : bool }
  | Srp_paired of { bs : int; es : int; verify : bool }
  | Owf of { bs : int; es : int }
  | Rfv of { live : int array; max_live : int }
  | Regdem of { regs_per_thread : int; spill_words : int }

let regs_per_cta (cfg : Arch_config.t) t ~warps_per_cta =
  let per_warp regs = regs * cfg.warp_size in
  match t with
  | Static { regs_per_thread } | Regdem { regs_per_thread; _ } ->
      warps_per_cta * per_warp (Arch_config.round_regs cfg regs_per_thread)
  | Srp { bs; _ } -> warps_per_cta * per_warp bs
  | Srp_paired { bs; es; _ } | Owf { bs; es } ->
      (warps_per_cta * per_warp bs) + (((warps_per_cta + 1) / 2) * per_warp es)
  | Rfv _ -> 0

(* Regdem is static allocation of the reduced register count; the spill
   machinery lives entirely in the program and the execution contexts, so
   it provides no sections. *)
let sections (cfg : Arch_config.t) t ~cta_capacity ~wpc ~regs_cta =
  let pairs name =
    if wpc mod 2 <> 0 then
      invalid_arg ("Sm: " ^ name ^ " policy requires an even warp count per CTA");
    cta_capacity * wpc / 2
  in
  match t with
  | Static _ | Regdem _ | Rfv _ -> 0
  | Srp { es; _ } ->
      let leftover = cfg.regfile_regs - (cta_capacity * regs_cta) in
      if es <= 0 then 0
      else min cfg.max_warps (max 0 (leftover / (es * cfg.warp_size)))
  | Srp_paired _ -> pairs "paired-warps"
  | Owf _ -> pairs "OWF"

type event = No_event | Acquire | Claim | Demand

type hooks = {
  bs : int;
  es : int;
  verify : bool;
  sections : int;
  max_rank : int;
  priority : int;
  spill_words : int;
  event : acquire:bool -> extended:bool -> event;
  moves : bool;
  can_acquire : int -> bool;
  acquire : int -> int;
  release : int -> bool;
  held : int -> int;
  can_claim : int -> bool;
  claim : int -> unit;
  fits : int -> int -> bool;
  move : int -> int -> unit;
  can_admit : unit -> bool;
  admit : int -> unit;
  exit : int -> bool;
  in_use : unit -> int;
  invariant : unit -> string option;
}

(* Static allocation: the whole demand is reserved at launch, so no pc is
   an event and every hook answers "go ahead". The other policies override
   what they track. *)
let static =
  { bs = max_int; es = 0; verify = false; sections = 0; max_rank = 3;
    priority = 0; spill_words = 0;
    event = (fun ~acquire:_ ~extended:_ -> No_event);
    moves = false;
    can_acquire = (fun _ -> true);
    acquire = (fun _ -> -1);
    release = (fun _ -> false);
    held = (fun _ -> -1);
    can_claim = (fun _ -> true);
    claim = ignore;
    fits = (fun _ _ -> true);
    move = (fun _ _ -> ());
    can_admit = (fun () -> true);
    admit = ignore;
    exit = (fun _ -> false);
    in_use = (fun () -> 0);
    invariant = (fun () -> None) }

let at_acquires ~acquire ~extended:_ = if acquire then Acquire else No_event

(* RegMutex: the SRP's warp-status bitmask, section bitmask and LUT. *)
let srp (cfg : Arch_config.t) ~sections ~bs ~es ~verify =
  let p = Srp.create ~n_warps:cfg.max_warps ~sections in
  { static with
    bs; es; verify; sections; max_rank = 4;
    event = at_acquires;
    can_acquire = (fun w -> Srp.held p ~warp:w >= 0 || Srp.free_sections p > 0);
    acquire =
      (fun w ->
        match Srp.acquire p ~warp:w with
        | Srp.Granted s -> s
        | Srp.Already_held _ -> -1
        | Srp.Stall -> -2);
    release =
      (fun w ->
        match Srp.release p ~warp:w with Srp.Released _ -> true | Srp.Not_held -> false);
    held = (fun w -> Srp.held p ~warp:w);
    exit = (fun w -> Option.is_some (Srp.reset_warp p ~warp:w));
    in_use = (fun () -> Srp.in_use p);
    invariant =
      (fun () ->
        let in_use = Srp.in_use p and free = Srp.free_sections p
        and sections = Srp.n_sections p in
        if in_use + free <> sections then
          Some
            (Printf.sprintf
               "SRP conservation broken: %d in use + %d free <> %d sections"
               in_use free sections)
        else if not (Srp.consistent p) then
          Some "SRP status/bitmask/LUT bookkeeping out of sync"
        else None) }

(* Paired warps: each pair of sibling warps owns one extended set. *)
let paired (cfg : Arch_config.t) ~sections ~bs ~es ~verify =
  let p = Srp_paired.create ~n_warps:cfg.max_warps ~enabled_pairs:sections in
  { static with
    bs; es; verify; sections; max_rank = 4;
    event = at_acquires;
    can_acquire = (fun w -> Srp_paired.available p ~warp:w);
    acquire =
      (fun w ->
        match Srp_paired.acquire p ~warp:w with
        | Srp_paired.Granted -> Srp_paired.pair_of_warp ~warp:w
        | Srp_paired.Already_held -> -1
        | Srp_paired.Stall -> -2);
    release =
      (fun w ->
        match Srp_paired.release p ~warp:w with
        | Srp_paired.Released -> true
        | Srp_paired.Not_held -> false);
    held =
      (fun w ->
        if Srp_paired.holds p ~warp:w then Srp_paired.pair_of_warp ~warp:w else -1);
    exit = (fun w -> Srp_paired.reset_warp p ~warp:w);
    in_use = (fun () -> Srp_paired.in_use p);
    invariant =
      (fun () ->
        let in_use = Srp_paired.in_use p and pairs = Srp_paired.n_pairs p in
        if in_use < 0 || in_use > pairs then
          Some
            (Printf.sprintf "paired SRP accounting broken: %d in use of %d pairs"
               in_use pairs)
        else None) }

(* OWF: a warp's first extended access claims its pair's registers for the
   rest of its life; until then its scheduling priority is 1, behind the
   owners. The CTA's warp count is even, so a warp's partner is slot
   [w lxor 1]. A partner parked at a barrier cannot finish until this warp
   arrives too, so only a [Ready] owner blocks the claim (the one
   concession the no-in-kernel-release design needs to run barrier
   kernels). *)
let owf ~(soa : Soa.t) ~sections ~bs ~es =
  let owned = ref 0 in
  let owns w = !owned land (1 lsl w) <> 0 in
  { static with
    bs; es; sections; max_rank = 4; priority = 1;
    event =
      (fun ~acquire ~extended -> if extended && not acquire then Claim else No_event);
    held = (fun w -> if owns w then w / 2 else -1);
    can_claim =
      (fun w ->
        let p = w lxor 1 in
        not (owns p && soa.Soa.status.(p) = Soa.st_ready));
    claim = (fun w -> owned := !owned lor (1 lsl w));
    exit = (fun w -> owned := !owned land lnot (1 lsl w); false) }

(* RFV: a warp is charged its live count at its pc, in packs of one
   register across the warp's lanes; the register file holds
   [regfile_regs / warp_size] packs. *)
let rfv (cfg : Arch_config.t) ~live ~n_slots ~wpc =
  let capacity = cfg.regfile_regs / cfg.warp_size in
  let used = ref 0 and alloc = Array.make n_slots 0 in
  let charge w demand =
    used := !used + demand - alloc.(w);
    alloc.(w) <- demand
  in
  { static with
    max_rank = 5;
    event = (fun ~acquire ~extended:_ -> if acquire then Acquire else Demand);
    moves = true;
    fits =
      (fun w next ->
        let delta = live.(next) - alloc.(w) in
        delta <= 0 || !used + delta <= capacity);
    move = (fun w next -> charge w live.(next));
    can_admit = (fun () -> !used + (wpc * live.(0)) <= capacity);
    admit = (fun w -> charge w live.(0));
    exit = (fun w -> charge w 0; false) }

let hooks cfg t ~soa ~n_pcs ~cta_capacity ~wpc ~regs_cta =
  let sections = sections cfg t ~cta_capacity ~wpc ~regs_cta in
  match t with
  | Static _ -> static
  | Regdem { spill_words; _ } -> { static with spill_words }
  | Srp { bs; es; verify } -> srp cfg ~sections ~bs ~es ~verify
  | Srp_paired { bs; es; verify } -> paired cfg ~sections ~bs ~es ~verify
  | Owf { bs; es } -> owf ~soa ~sections ~bs ~es
  | Rfv { live; _ } ->
      if Array.length live <> n_pcs then
        invalid_arg "Policy.hooks: RFV live table length mismatch";
      rfv cfg ~live ~n_slots:soa.Soa.n_slots ~wpc

let name = function
  | Static _ -> "baseline"
  | Srp _ -> "regmutex"
  | Srp_paired _ -> "regmutex-paired"
  | Owf _ -> "owf"
  | Rfv _ -> "rfv"
  | Regdem _ -> "regdem"

let pp ppf t =
  match t with
  | Static { regs_per_thread } -> Format.fprintf ppf "baseline(regs=%d)" regs_per_thread
  | Srp { bs; es; _ } -> Format.fprintf ppf "regmutex(bs=%d, es=%d)" bs es
  | Srp_paired { bs; es; _ } -> Format.fprintf ppf "regmutex-paired(bs=%d, es=%d)" bs es
  | Owf { bs; es } -> Format.fprintf ppf "owf(bs=%d, es=%d)" bs es
  | Rfv { max_live; _ } -> Format.fprintf ppf "rfv(max_live=%d)" max_live
  | Regdem { regs_per_thread; spill_words } ->
      Format.fprintf ppf "regdem(regs=%d, spill_words=%d)" regs_per_thread
        spill_words
