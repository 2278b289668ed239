(* Translation validation by differential simulation.

   The Ssa sanitizer tier proves a transformed module is still *well-formed*;
   it says nothing about whether the pass preserved behaviour. This module
   closes that gap for the Equiv tier: given the module before and after a
   pass application, it runs both under the reference interpreter on
   deterministic, seed-derived inputs and compares every observable —
   return value, printed output, and (for per-function checks) the final
   contents of a scratch buffer that pointer parameters alias into.

   This is concretized symbolic checking, not a proof: loops make full
   symbolic lockstep simulation intractable, so instead each seed fixes the
   free symbols (arguments, initial memory) to concrete values derived from
   a hash of the function name and seed index, and the two sides are
   required to agree exactly on everything the interpreter can observe.
   A disagreement is always a real miscompile; agreement on all seeds is
   strong evidence, not certainty. Traps must match in kind (both trap =
   pass); an out-of-fuel run on either side skips the comparison rather
   than failing it, since a pass may legitimately change how much work a
   bounded run performs.

   Checks are cheap in the common case: most pass applications are no-ops,
   and a module bit-exactly equal to its input ([Modul.equal]: float
   constants by bit pattern, so a flipped sign of zero is a change)
   short-circuits before any interpretation happens. *)

open Posetrl_ir
module Obs = Posetrl_obs
module Interp = Posetrl_interp.Interp
module SMap = Map.Make (String)

type mismatch = {
  func : string;  (* function the divergence was observed through *)
  detail : string;
}

let harness_name = "__equiv.check"

(* Scratch buffer the harness allocates: 32 i64 cells. Pointer parameters
   are carved out of it (8 cells each, at most 4 pointer params), and every
   cell is printed after the call so stores through those pointers are
   observable. *)
let scratch_cells = 32
let cells_per_ptr = 8
let max_ptr_params = scratch_cells / cells_per_ptr

(* Seed-derived argument values. Small mixed-sign integers exercise
   branches and wrap behaviour without making most random programs trap. *)
let arg_pool =
  [| 0L; 1L; 2L; 3L; 5L; 7L; -1L; 8L; 13L; -4L; 17L; 100L; -31L; 64L; 9L; 255L |]

let pool_pick h = arg_pool.(abs h mod Array.length arg_pool)

let scalar_ty = function
  | Types.I1 | Types.I8 | Types.I32 | Types.I64 | Types.F64 -> true
  | _ -> false

let harnessable_ty ty = scalar_ty ty || Types.equal ty Types.Ptr

(* A function we can drive from a harness: every parameter is a scalar or
   one of at most [max_ptr_params] pointers, and the module doesn't already
   define something under the harness name. *)
let harnessable (f : Func.t) =
  (not (Func.is_declaration f))
  && List.for_all (fun (_, ty) -> harnessable_ty ty) f.Func.params
  && List.length (List.filter (fun (_, ty) -> Types.equal ty Types.Ptr) f.Func.params)
     <= max_ptr_params

(* Build the driver function for [f] at a given seed. It seeds the scratch
   buffer, calls [f] with deterministic arguments, prints the return value
   (widened to i64 for narrow ints), then prints every scratch cell. *)
let build_harness ~seed (f : Func.t) : Func.t =
  let b = Builder.create ~name:harness_name ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let scratch = Builder.alloca b Types.I64 scratch_cells in
  let h0 = Hashtbl.hash (f.Func.name, seed, "cells") in
  for c = 0 to scratch_cells - 1 do
    let p = Builder.gep b Types.I64 scratch (Value.cint Types.I64 (Int64.of_int c)) in
    Builder.store b Types.I64 (Value.cint Types.I64 (pool_pick (h0 + c))) p
  done;
  let nptr = ref 0 in
  let args =
    List.map
      (fun (idx, ty) ->
        let h = Hashtbl.hash (f.Func.name, idx, seed) in
        match ty with
        | Types.I1 -> Value.cint Types.I1 (Int64.of_int (h land 1))
        | Types.I8 | Types.I32 | Types.I64 -> Value.cint ty (pool_pick h)
        | Types.F64 -> Value.cfloat (Int64.to_float (pool_pick h) /. 2.0)
        | Types.Ptr ->
          let j = !nptr in
          incr nptr;
          Builder.gep b Types.I64 scratch
            (Value.cint Types.I64 (Int64.of_int (j * cells_per_ptr)))
        | _ -> invalid_arg "Equiv.build_harness: unsupported parameter type")
      f.Func.params
  in
  let r = Builder.call b f.Func.ret f.Func.name args in
  (match f.Func.ret with
   | Types.I64 -> ignore (Builder.call b Types.I64 "print_i64" [ r ])
   | Types.I1 | Types.I8 | Types.I32 ->
     let w = Builder.sext b ~from_ty:f.Func.ret ~to_ty:Types.I64 r in
     ignore (Builder.call b Types.I64 "print_i64" [ w ])
   | Types.F64 -> ignore (Builder.call b Types.I64 "print_f64" [ r ])
   | _ -> () (* Ptr / Void / Vec returns are not printed *));
  for c = 0 to scratch_cells - 1 do
    let p = Builder.gep b Types.I64 scratch (Value.cint Types.I64 (Int64.of_int c)) in
    let v = Builder.load b Types.I64 p in
    ignore (Builder.call b Types.I64 "print_i64" [ v ])
  done;
  Builder.ret b Types.I64 (Value.cint Types.I64 0L);
  Builder.finish b

let with_harness (m : Modul.t) (h : Func.t) : Modul.t =
  { m with Modul.funcs = m.Modul.funcs @ [ h ] }

(* --- observation comparison ---------------------------------------------- *)

type verdict = Pass | Skip | Fail of string

let is_fuel_trap msg = String.equal msg "out of fuel"

let truncate s n = if String.length s <= n then s else String.sub s 0 n ^ "..."

let compare_obs before after : verdict =
  match before, after with
  | Error e, _ when is_fuel_trap e -> Skip
  | _, Error e when is_fuel_trap e -> Skip
  | Ok (r1, o1), Ok (r2, o2) ->
    if String.equal r1 r2 && String.equal o1 o2 then Pass
    else
      Fail
        (Printf.sprintf "before ret=%s out=%S / after ret=%s out=%S" r1
           (truncate o1 160) r2 (truncate o2 160))
  | Error _, Error _ -> Pass (* both sides trap: divergence in detail is fine *)
  | Ok (r1, _), Error e -> Fail (Printf.sprintf "after traps (%s), before ret=%s" e r1)
  | Error e, Ok (r2, _) -> Fail (Printf.sprintf "before traps (%s), after ret=%s" e r2)

let default_fuel = 2_000_000
let seeds = 2

let observe ~fuel ~entry ?(args = []) m =
  try Interp.observe ~fuel ~entry ~args m with
  | Failure msg | Invalid_argument msg -> Error ("interp failure: " ^ msg)

(* Drive one (before, after) function pair through [seeds] harness runs. *)
let check_func_pair ~fuel ~(before : Modul.t) ~(after : Modul.t)
    (f : Func.t) : verdict =
  let rec go seed =
    if seed >= seeds then Pass
    else
      let h = build_harness ~seed f in
      let vb = observe ~fuel ~entry:harness_name (with_harness before h) in
      let va = observe ~fuel ~entry:harness_name (with_harness after h) in
      match compare_obs vb va with
      | Pass | Skip -> go (seed + 1)
      | Fail d -> Fail (Printf.sprintf "seed %d: %s" seed d)
  in
  go 0

(* Concrete interpreter values for main's parameters, when main takes any.
   Pointer-taking mains are not checkable this way. *)
let concrete_args ~seed (f : Func.t) : Interp.value list option =
  if List.for_all (fun (_, ty) -> scalar_ty ty) f.Func.params then
    Some
      (List.map
         (fun (idx, ty) ->
           let h = Hashtbl.hash (f.Func.name, idx, seed) in
           match ty with
           | Types.I1 -> Interp.VInt (Int64.of_int (h land 1))
           | Types.F64 -> Interp.VFloat (Int64.to_float (pool_pick h) /. 2.0)
           | _ -> Interp.VInt (Types.wrap ty (pool_pick h)))
         f.Func.params)
  else None

(* Physical-equality memo for main observations. In a pass pipeline the
   "before" module of pass N+1 *is* the "after" module of pass N, so
   without this every module's main gets interpreted twice. Keyed on
   (module identity, seed); tiny LRU since chains only ever need the
   last module or two. Domain-local, like [Vocabulary]'s cache: pooled
   sanitized runs each keep their own, and an entry depends only on its
   module, so results do not depend on which domain ran what. *)
let main_memo : (Modul.t * int * (string * string, string) result) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let memo_limit = 8

let observe_main ~fuel ~seed ~args (m : Modul.t) =
  let memo = Domain.DLS.get main_memo in
  match List.find_opt (fun (m', s, _) -> m' == m && s = seed) memo with
  | Some (_, _, r) -> r
  | None ->
    let r = observe ~fuel ~entry:"main" ~args m in
    let kept = List.filteri (fun i _ -> i < memo_limit - 1) memo in
    Domain.DLS.set main_memo ((m, seed, r) :: kept);
    r

let check_main ~fuel ~(before : Modul.t) ~(after : Modul.t) : verdict =
  match Modul.find_func before "main", Modul.find_func after "main" with
  | Some fb, Some _ when not (Func.is_declaration fb) ->
    (* a nullary main runs identically under every seed *)
    let seeds = if fb.Func.params = [] then 1 else seeds in
    let rec go seed =
      if seed >= seeds then Pass
      else
        match concrete_args ~seed fb with
        | None -> Pass
        | Some args ->
          let vb = observe_main ~fuel ~seed ~args before in
          let va = observe_main ~fuel ~seed ~args after in
          (match compare_obs vb va with
           | Pass | Skip -> go (seed + 1)
           | Fail d -> Fail (Printf.sprintf "seed %d: %s" seed d))
    in
    go 0
  | _ -> Pass

let signature_equal (a : Func.t) (b : Func.t) =
  Types.equal a.Func.ret b.Func.ret
  && List.length a.Func.params = List.length b.Func.params
  && List.for_all2
       (fun (_, t1) (_, t2) -> Types.equal t1 t2)
       a.Func.params b.Func.params

(* --- public entry point --------------------------------------------------- *)

(* Validate one pass application. [per_function] should be true for
   function-scope passes: each changed definition is then also driven
   through its own harness, which observes behaviour main never reaches.
   Module-scope passes (inlining, IPO, global DCE) legitimately change
   individual function behaviour in ways that only whole-program
   observation can judge, so they are validated through main alone. *)
let validate ?(fuel = default_fuel)
    ?(per_function = true) ~(before : Modul.t) (after : Modul.t) :
    mismatch list =
  if Modul.equal before after then []
  else
    Obs.Span.with_ "posetrl.analysis.equiv.validate"
      ~attrs:[ ("module", Obs.Event.S after.Modul.name) ]
      (fun sp ->
        Obs.Metrics.inc (Obs.Metrics.counter "posetrl.analysis.equiv.checks");
        let mismatches = ref [] in
        let record func detail = mismatches := { func; detail } :: !mismatches in
        (match check_main ~fuel ~before ~after with
         | Fail d -> record "main" d
         | Pass | Skip -> ());
        if per_function && Option.is_none (Modul.find_func before harness_name)
        then begin
          let befores =
            List.fold_left
              (fun acc f -> SMap.add f.Func.name f acc)
              SMap.empty before.Modul.funcs
          in
          List.iter
            (fun (fa : Func.t) ->
              if (not (Func.is_declaration fa)) && fa.Func.name <> "main" then
                match SMap.find_opt fa.Func.name befores with
                | Some fb
                  when signature_equal fb fa && harnessable fa
                       && not (Func.equal fb fa) -> (
                  match check_func_pair ~fuel ~before ~after fa with
                  | Fail d -> record fa.Func.name d
                  | Pass | Skip -> ())
                | _ -> ())
            after.Modul.funcs
        end;
        let out = List.rev !mismatches in
        if out <> [] then
          Obs.Metrics.inc
            ~by:(float_of_int (List.length out))
            (Obs.Metrics.counter "posetrl.analysis.equiv.mismatches");
        Obs.Span.set_attr sp "mismatches" (Obs.Event.I (List.length out));
        out)
