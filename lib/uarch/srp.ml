type t = {
  status : Bitmask.t;        (* warp status: 1 = holding an extended set *)
  srp : Bitmask.t;           (* SRP sections: 1 = acquired *)
  lut : int array;           (* warp -> section (valid when status bit set) *)
}

type acquire_result =
  | Granted of int
  | Stall
  | Already_held of int

type release_result =
  | Released of int
  | Not_held

let create ~n_warps ~sections =
  if sections > n_warps then invalid_arg "Srp.create: more sections than warps";
  {
    status = Bitmask.create ~width:n_warps ~valid:n_warps;
    srp = Bitmask.create ~width:n_warps ~valid:sections;
    lut = Array.make n_warps 0;
  }

let held t ~warp = if Bitmask.test t.status warp then t.lut.(warp) else -1

let holds t ~warp =
  let s = held t ~warp in
  if s < 0 then None else Some s

let acquire t ~warp =
  match holds t ~warp with
  | Some section -> Already_held section
  | None -> (
      match Bitmask.ffz t.srp with
      | None -> Stall
      | Some section ->
          Bitmask.set t.srp section;
          Bitmask.set t.status warp;
          t.lut.(warp) <- section;
          Granted section)

let release t ~warp =
  match holds t ~warp with
  | None -> Not_held
  | Some section ->
      Bitmask.clear t.status warp;
      Bitmask.clear t.srp section;
      Released section

let n_sections t = Bitmask.valid t.srp
let free_sections t = n_sections t - Bitmask.popcount t.srp
let in_use t = Bitmask.popcount t.srp

let reset_warp t ~warp =
  match release t ~warp with Released s -> Some s | Not_held -> None

(* Independent cross-check of the three redundant structures: every held
   warp must map (via the lut) to a distinct acquired section, and the two
   popcounts must agree. Walks the raw status bits, lowest first, rather
   than trusting any of the accessor invariants above; [seen] collects the
   sections met so far (sections are below the 61-bit mask width). *)
let consistent t =
  let valid = Bitmask.valid t.srp in
  let rec holders held seen =
    held = 0
    ||
    let s = t.lut.(Gpu_isa.Bits.lowest held) in
    s >= 0 && s < valid && Bitmask.test t.srp s
    && seen land (1 lsl s) = 0
    && holders (held land (held - 1)) (seen lor (1 lsl s))
  in
  holders (Bitmask.set_bits t.status) 0
  && Bitmask.popcount t.status = Bitmask.popcount t.srp

let pp ppf t =
  Format.fprintf ppf "srp=%a status=%a" Bitmask.pp t.srp Bitmask.pp t.status
