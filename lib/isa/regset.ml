type t = int

let max_reg = 61

let check r =
  if r < 0 || r > max_reg then
    invalid_arg (Printf.sprintf "Regset: register index %d out of [0, %d]" r max_reg)

let empty = 0
let singleton r = check r; 1 lsl r
let add r s = check r; s lor (1 lsl r)
let remove r s = check r; s land lnot (1 lsl r)
let mem r s = r >= 0 && r <= max_reg && s land (1 lsl r) <> 0
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b

let cardinal = Bits.popcount

let is_empty s = s = 0
let equal (a : t) (b : t) = a = b
let subset a b = a land lnot b = 0

let of_list rs = List.fold_left (fun s r -> add r s) empty rs

(* The walks below visit only the set bits, lowest first:
   [s land (s - 1)] clears the lowest one. *)
let fold f s init =
  let rec go s acc =
    if s = 0 then acc else go (s land (s - 1)) (f (Bits.lowest s) acc)
  in
  go s init

let iter f s =
  let rec go s =
    if s <> 0 then begin
      f (Bits.lowest s);
      go (s land (s - 1))
    end
  in
  go s

let exists p s =
  let rec go s = s <> 0 && (p (Bits.lowest s) || go (s land (s - 1))) in
  go s

(* Highest member first, consed onto the accumulator: ascending result
   with no reversal. *)
let to_list s =
  let rec go s acc =
    if s = 0 then acc
    else
      let r = Bits.highest s in
      go (s lxor (1 lsl r)) (r :: acc)
  in
  go s []

let min_elt s =
  if s = 0 then raise Not_found;
  Bits.lowest s

let max_elt s =
  if s = 0 then raise Not_found;
  Bits.highest s

let mask_below n =
  if n <= 0 then 0 else if n > max_reg + 1 then lnot 0 else (1 lsl n) - 1

let above n s = s land lnot (mask_below n)
let below n s = s land mask_below n

let pp ppf s =
  let members = to_list s in
  let pp_reg ppf r = Format.fprintf ppf "r%d" r in
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_reg) members
