(* Dense float vectors.

   The embedding and neural-network layers need only a small set of
   vector primitives; they are collected here so numerical code reads as
   math rather than loops. All operations are over [float array]. *)

type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let dim = Array.length

let check_same_dim a b name =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vecf.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let map2 f a b =
  check_same_dim a b "map2";
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let sub a b = map2 ( -. ) a b

let scale k = Array.map (fun x -> k *. x)

(* a <- a + k * b, in place; the inner-loop workhorse. *)
let axpy ~k a b =
  check_same_dim a b "axpy";
  for i = 0 to Array.length a - 1 do
    a.(i) <- a.(i) +. (k *. b.(i))
  done

let add_inplace a b = axpy ~k:1.0 a b

let dot a b =
  check_same_dim a b "dot";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

let normalize a =
  let n = norm2 a in
  if n < 1e-12 then copy a else scale (1.0 /. n) a

let cosine a b =
  let na = norm2 a and nb = norm2 b in
  if na < 1e-12 || nb < 1e-12 then 0.0 else dot a b /. (na *. nb)

let argmax a =
  if Array.length a = 0 then invalid_arg "Vecf.argmax: empty";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let max_elt a = a.(argmax a)
