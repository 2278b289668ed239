(* Operand values: constants, SSA registers, and global addresses. *)

type const =
  | Cint of Types.t * int64
  | Cfloat of float
  | Cnull
  | Cundef of Types.t

type t =
  | Const of const
  | Reg of int
  | Global of string

let cint ty v = Const (Cint (ty, Types.wrap ty v))

let ci1 b = cint Types.I1 (if b then 1L else 0L)

let ci32 v = cint Types.I32 (Int64.of_int v)

let ci64 v = cint Types.I64 (Int64.of_int v)

let cfloat f = Const (Cfloat f)

let cnull = Const Cnull

let cundef ty = Const (Cundef ty)

let reg r = Reg r

let global g = Global g

let is_const = function Const _ -> true | _ -> false

let is_zero = function
  | Const (Cint (_, 0L)) -> true
  | Const (Cfloat 0.0) -> true
  | Const Cnull -> true
  | _ -> false

let is_one = function
  | Const (Cint (_, 1L)) -> true
  | Const (Cfloat 1.0) -> true
  | _ -> false

let is_all_ones = function
  | Const (Cint (_, -1L)) -> true
  | Const (Cint (Types.I1, 1L)) -> true
  | _ -> false

let const_ty = function
  | Cint (ty, _) -> ty
  | Cfloat _ -> Types.F64
  | Cnull -> Types.Ptr
  | Cundef ty -> ty

(* Polymorphic compare, equality and hash see -0. and 0. as one float
   (and every NaN as one). The bit-exact form tells them apart: a float
   constant becomes its bit pattern as an F64-typed integer constant, a
   form no parsed or built constant has. *)
let exact = function
  | Const (Cfloat f) -> Const (Cint (Types.F64, Int64.bits_of_float f))
  | v -> v

(* floats by bit pattern, so that nan = nan and -0. <> 0. for CSE *)
let equal (a : t) (b : t) = exact a = exact b

(* Floats are printed so they survive a print/parse round trip and are
   lexically distinct from integers (always contain '.', 'e' or a letter). *)
let float_repr f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else
    let s = Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let pp_const ppf = function
  | Cint (Types.I1, v) -> Fmt.string ppf (if Int64.equal v 0L then "false" else "true")
  | Cint (_, v) -> Fmt.pf ppf "%Ld" v
  | Cfloat f -> Fmt.string ppf (float_repr f)
  | Cnull -> Fmt.string ppf "null"
  | Cundef _ -> Fmt.string ppf "undef"

let pp ppf = function
  | Const c -> pp_const ppf c
  | Reg r -> Fmt.pf ppf "%%%d" r
  | Global g -> Fmt.pf ppf "@%s" g

let to_string v = Fmt.str "%a" pp v
