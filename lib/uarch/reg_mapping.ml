type config = {
  bs : int;
  es : int;
  srp_offset : int;
}

type error =
  | Out_of_range
  | Extended_not_acquired

let baseline ~coeff ~widx ~x = x + (coeff * widx)

let out_of_range = -1
let not_acquired = -2

let physical cfg ~widx ~section ~x =
  if x < 0 || x >= cfg.bs + cfg.es then out_of_range
  else if x < cfg.bs then (widx * cfg.bs) + x
  else if section < 0 then not_acquired
  else cfg.srp_offset + (section * cfg.es) + (x - cfg.bs)

let error_of_code code =
  if code = out_of_range then Out_of_range
  else if code = not_acquired then Extended_not_acquired
  else invalid_arg "Reg_mapping.error_of_code: not an error code"

let regmutex cfg ~widx ~section ~x =
  let section = match section with Some s -> s | None -> -1 in
  let p = physical cfg ~widx ~section ~x in
  if p = out_of_range || p = not_acquired then Error (error_of_code p) else Ok p

let srp_offset_for ~bs ~resident_warps = bs * resident_warps

let pp_error ppf = function
  | Out_of_range -> Format.pp_print_string ppf "architected index out of range"
  | Extended_not_acquired ->
      Format.pp_print_string ppf "extended-set access without an acquired section"
