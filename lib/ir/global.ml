(* Module-level global variables. *)

type linkage = Internal | External

type init =
  | Zeroinit
  | Ints of int64 array
  | Floats of float array
  | Bytes of string

type t = {
  name : string;
  elt_ty : Types.t;
  elems : int;
  init : init option; (* [None] = external declaration *)
  is_const : bool;
  linkage : linkage;
  align : int;
}

let mk ?(is_const = false) ?(linkage = Internal) ?(align = 8) ?init name elt_ty elems =
  { name; elt_ty; elems; init; is_const; linkage; align }

let size_bytes g = g.elems * Types.size_bytes g.elt_ty

let is_definition g = Option.is_some g.init

(* Bit-exact: [Floats] initializers compare by bit pattern, so -0. and
   0. differ. *)
let init_equal (a : init option) (b : init option) =
  match a, b with
  | Some (Floats x), Some (Floats y) ->
    Array.length x = Array.length y
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         x y
  | _ -> a = b

let equal (a : t) (b : t) =
  a == b
  || String.equal a.name b.name
     && Types.equal a.elt_ty b.elt_ty && a.elems = b.elems && a.is_const = b.is_const
     && a.linkage = b.linkage && a.align = b.align
     && init_equal a.init b.init
