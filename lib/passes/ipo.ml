(* Interprocedural passes: -globalopt, -globaldce, -constmerge,
   -deadargelim, -strip-dead-prototypes, -elim-avail-extern,
   -called-value-propagation, -prune-eh. *)

open Posetrl_ir
module SSet = Set.Make (String)

(* names referenced anywhere in the module (operands of any instruction) *)
let referenced_globals (m : Modul.t) : SSet.t =
  List.fold_left
    (fun acc f ->
      if Func.is_declaration f then acc
      else
        Func.fold_insns
          (fun acc _ i ->
            let acc =
              match i.Instr.op with
              | Instr.Call (_, g, _) -> SSet.add g acc
              | _ -> acc
            in
            List.fold_left
              (fun acc v ->
                match v with Value.Global g -> SSet.add g acc | _ -> acc)
              acc
              (Instr.operands i.Instr.op))
          acc f)
    SSet.empty m.Modul.funcs

(* --- globaldce ------------------------------------------------------------

   Reachability from external roots; unreferenced internal functions and
   globals are deleted. *)

let run_globaldce (m : Modul.t) : Modul.t =
  let roots =
    List.filter_map
      (fun f ->
        if f.Func.linkage = Func.External && not (Func.is_declaration f) then
          Some f.Func.name
        else None)
      m.Modul.funcs
  in
  (* iterate reachability over the call/reference graph *)
  let reachable = Hashtbl.create 16 in
  let queue = Queue.create () in
  List.iter (fun r -> Queue.add r queue) roots;
  List.iter
    (fun (g : Global.t) ->
      if g.Global.linkage = Global.External then Queue.add g.Global.name queue)
    m.Modul.globals;
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    if not (Hashtbl.mem reachable name) then begin
      Hashtbl.replace reachable name ();
      match Modul.find_func m name with
      | Some f when not (Func.is_declaration f) ->
        Func.iter_insns
          (fun _ i ->
            (match i.Instr.op with
             | Instr.Call (_, g, _) -> Queue.add g queue
             | _ -> ());
            List.iter
              (fun v -> match v with Value.Global g -> Queue.add g queue | _ -> ())
              (Instr.operands i.Instr.op))
          f
      | _ -> ()
    end
  done;
  { m with
    Modul.funcs =
      List.filter
        (fun f ->
          Hashtbl.mem reachable f.Func.name || f.Func.linkage = Func.External)
        m.Modul.funcs;
    Modul.globals =
      List.filter
        (fun (g : Global.t) ->
          Hashtbl.mem reachable g.Global.name || g.Global.linkage = Global.External)
        m.Modul.globals }

let globaldce_pass =
  Pass.mk "globaldce" ~description:"delete unreachable internal globals and functions"
    (fun _cfg m -> run_globaldce m)

(* --- globalopt ------------------------------------------------------------

   Internal globals that are never stored to become constants; loads of
   constant scalar globals fold to their initializer; internal globals
   that are never loaded lose their stores. *)

let run_globalopt (m : Modul.t) : Modul.t =
  let stored = Hashtbl.create 8 and loaded = Hashtbl.create 8 in
  let escaped = Hashtbl.create 8 in
  List.iter
    (fun f ->
      if not (Func.is_declaration f) then
        Func.iter_insns
          (fun _ i ->
            match i.Instr.op with
            | Instr.Store (_, v, Value.Global g) ->
              Hashtbl.replace stored g ();
              (match v with
               | Value.Global g' -> Hashtbl.replace escaped g' ()
               | _ -> ())
            | Instr.Load (_, Value.Global g) -> Hashtbl.replace loaded g ()
            | op ->
              List.iter
                (fun v ->
                  match v with Value.Global g -> Hashtbl.replace escaped g () | _ -> ())
                (Instr.operands op))
          f)
    m.Modul.funcs;
  let never g tbl = not (Hashtbl.mem tbl g) in
  (* 1. constantize internal, never-stored, never-escaping globals *)
  let globals =
    List.map
      (fun (g : Global.t) ->
        if
          g.Global.linkage = Global.Internal
          && never g.Global.name stored
          && never g.Global.name escaped
          && Global.is_definition g
        then { g with Global.is_const = true }
        else g)
      m.Modul.globals
  in
  let m = { m with Modul.globals = globals } in
  (* 2. fold loads of constant single-element globals *)
  let const_scalar g =
    match Modul.find_global m g with
    | Some gl when gl.Global.is_const && gl.Global.elems = 1 ->
      (match gl.Global.init with
       | Some (Global.Ints [| v |]) -> Some (Value.cint gl.Global.elt_ty v)
       | Some (Global.Floats [| v |]) -> Some (Value.cfloat v)
       | Some Global.Zeroinit ->
         Some
           (if Types.is_float gl.Global.elt_ty then Value.cfloat 0.0
            else Value.cint gl.Global.elt_ty 0L)
       | _ -> None)
    | _ -> None
  in
  let fold_loads (f : Func.t) =
    let subst = Hashtbl.create 4 in
    Func.iter_insns
      (fun _ i ->
        match i.Instr.op with
        | Instr.Load (ty, Value.Global g) ->
          (match const_scalar g with
           | Some (Value.Const c as v) when Types.equal (Value.const_ty c) ty ->
             Hashtbl.replace subst i.Instr.id v
           | _ -> ())
        | _ -> ())
      f;
    Func.substitute subst f
  in
  (* 3. drop stores to internal never-loaded, never-escaping globals *)
  let write_only g =
    match Modul.find_global m g with
    | Some gl ->
      gl.Global.linkage = Global.Internal
      && never g loaded && never g escaped
    | None -> false
  in
  let drop_stores (f : Func.t) =
    Func.map_blocks
      (Block.filter_insns (fun i ->
           match i.Instr.op with
           | Instr.Store (_, _, Value.Global g) -> not (write_only g)
           | _ -> true))
      f
  in
  Modul.map_defined (fun f -> f |> fold_loads |> drop_stores) m

let globalopt_pass =
  Pass.mk "globalopt" ~description:"constantize and shrink internal globals"
    (fun _cfg m -> run_globalopt m)

(* --- constmerge -----------------------------------------------------------

   Identical internal constant globals merge into one. *)

let run_constmerge (m : Modul.t) : Modul.t =
  let key (g : Global.t) = (g.Global.elt_ty, g.Global.elems, g.Global.init) in
  let canon : ((Types.t * int * Global.init option), string) Hashtbl.t = Hashtbl.create 8 in
  let replace : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let globals =
    List.filter
      (fun (g : Global.t) ->
        if g.Global.is_const && g.Global.linkage = Global.Internal
           && Global.is_definition g then begin
          match Hashtbl.find_opt canon (key g) with
          | Some keep ->
            Hashtbl.replace replace g.Global.name keep;
            false
          | None ->
            Hashtbl.replace canon (key g) g.Global.name;
            true
        end
        else true)
      m.Modul.globals
  in
  if Hashtbl.length replace = 0 then m
  else begin
    let subst v =
      match v with
      | Value.Global g ->
        (match Hashtbl.find_opt replace g with
         | Some keep -> Value.Global keep
         | None -> v)
      | _ -> v
    in
    { m with Modul.globals = globals }
    |> Modul.map_defined (Func.map_operands subst)
  end

let constmerge_pass =
  Pass.mk "constmerge" ~description:"merge identical internal constant globals"
    (fun _cfg m -> run_constmerge m)

(* functions whose address is taken as a value (not just called directly,
   even when passed to a direct call of themselves); changing their
   signature (deadargelim) or specializing their parameters (ipsccp)
   would break indirect call sites *)
let address_taken_funcs (m : Modul.t) : SSet.t =
  List.fold_left
    (fun acc f ->
      if Func.is_declaration f then acc
      else
        Func.fold_insns
          (fun acc _ i ->
            List.fold_left
              (fun acc v ->
                match v with
                | Value.Global g when Option.is_some (Modul.find_func m g) ->
                  SSet.add g acc
                | _ -> acc)
              acc
              (Instr.operands i.Instr.op))
          acc f)
    SSet.empty m.Modul.funcs

(* --- deadargelim ----------------------------------------------------------

   Unused parameters of internal, non-address-taken functions are removed,
   and all call sites updated. *)

let run_deadargelim (m : Modul.t) : Modul.t =
  let address_taken = address_taken_funcs m in
  let victims =
    List.filter_map
      (fun f ->
        if Func.is_declaration f || f.Func.linkage = Func.External
           || SSet.mem f.Func.name address_taken then None
        else begin
          let uses = Func.use_counts f in
          let dead =
            List.mapi
              (fun idx (r, _) ->
                (idx, Option.value (Hashtbl.find_opt uses r) ~default:0 = 0))
              f.Func.params
            |> List.filter_map (fun (idx, d) -> if d then Some idx else None)
          in
          if dead = [] then None else Some (f.Func.name, dead)
        end)
      m.Modul.funcs
  in
  if victims = [] then m
  else begin
    let keep_args name args =
      match List.assoc_opt name victims with
      | None -> args
      | Some dead ->
        List.filteri (fun idx _ -> not (List.mem idx dead)) args
    in
    let m =
      Modul.map_defined
        (fun f ->
          Func.map_blocks
            (Block.map_insns (fun (i : Instr.t) ->
                 match i.Instr.op with
                 | Instr.Call (ty, g, args) when List.mem_assoc g victims ->
                   { i with Instr.op = Instr.Call (ty, g, keep_args g args) }
                 | _ -> i))
            f)
        m
    in
    Modul.map_funcs
      (fun f ->
        match List.assoc_opt f.Func.name victims with
        | None -> f
        | Some dead ->
          { f with
            Func.params =
              List.filteri (fun idx _ -> not (List.mem idx dead)) f.Func.params })
      m
  end

let deadargelim_pass =
  Pass.mk "deadargelim" ~description:"remove unused parameters of internal functions"
    (fun _cfg m -> run_deadargelim m)

(* --- strip-dead-prototypes -------------------------------------------------

   Unreferenced declarations disappear. *)

let run_strip (m : Modul.t) : Modul.t =
  let referenced = referenced_globals m in
  { m with
    Modul.funcs =
      List.filter
        (fun f -> (not (Func.is_declaration f)) || SSet.mem f.Func.name referenced)
        m.Modul.funcs }

let strip_pass =
  Pass.mk "strip-dead-prototypes" ~description:"drop unreferenced declarations"
    (fun _cfg m -> run_strip m)

(* --- elim-avail-extern ------------------------------------------------------

   Bodies of available-externally functions (inlining fodder that the
   linker provides elsewhere) are dropped after the inliner has run. *)

let run_elim_avail (m : Modul.t) : Modul.t =
  Modul.map_funcs
    (fun f ->
      if Func.has_attr "available_externally" f && not (Func.is_declaration f) then
        { f with Func.blocks = []; Func.linkage = Func.External }
      else f)
    m

let elim_avail_pass =
  Pass.mk "elim-avail-extern"
    ~description:"drop bodies of available-externally functions"
    (fun _cfg m -> run_elim_avail m)

(* --- called-value-propagation ------------------------------------------------

   Indirect calls whose callee value is a known single function become
   direct calls (through values and single-incoming phis/selects that
   resolve to one global function). *)

let run_cvp (m : Modul.t) : Modul.t =
  let resolve_func (f : Func.t) =
    let defs = Func.def_map f in
    let rec resolve v depth =
      if depth = 0 then None
      else
        match v with
        | Value.Global g when Option.is_some (Modul.find_func m g) -> Some g
        | Value.Reg r ->
          (match Hashtbl.find_opt defs r with
           | Some (_, { Instr.op = Instr.Phi (_, incs); _ }) ->
             let targets =
               List.map (fun (_, v) -> resolve v (depth - 1)) incs
             in
             (match targets with
              | Some g :: rest
                when List.for_all (function Some g' -> String.equal g g' | None -> false) rest ->
                Some g
              | _ -> None)
           | Some (_, { Instr.op = Instr.Select (_, _, a, b); _ }) ->
             (match resolve a (depth - 1), resolve b (depth - 1) with
              | Some ga, Some gb when String.equal ga gb -> Some ga
              | _ -> None)
           | _ -> None)
        | _ -> None
    in
    Func.map_blocks
      (Block.map_insns (fun (i : Instr.t) ->
           match i.Instr.op with
           | Instr.Callind (ty, callee, args) ->
             (match resolve callee 4 with
              | Some g ->
                (match Modul.find_func m g with
                 | Some target when List.length target.Func.params = List.length args ->
                   { i with Instr.op = Instr.Call (ty, g, args) }
                 | _ -> i)
              | None -> i)
           | _ -> i))
      f
  in
  Modul.map_defined resolve_func m

let cvp_pass =
  Pass.mk "called-value-propagation"
    ~description:"devirtualize indirect calls with a unique callee"
    (fun _cfg m -> run_cvp m)

(* --- prune-eh ---------------------------------------------------------------

   With no exceptions in MiniIR, the pass's surviving effect is interface
   shrinking: callees that cannot unwind get [nounwind], and calls to
   unreachable-only functions are followed by unreachable. We implement
   the attribute half. *)

let run_prune_eh (m : Modul.t) : Modul.t =
  Modul.map_defined (fun f -> Func.add_attr Attrs.nounwind f) m

let prune_eh_pass =
  Pass.mk "prune-eh" ~description:"mark functions nounwind (no EH in MiniIR)"
    (fun _cfg m -> run_prune_eh m)
