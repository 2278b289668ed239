(* Parser for the textual MiniIR syntax produced by [Printer].

   The grammar is deliberately regular: registers are written [%N] with
   the numbering used internally, so [parse (print m)] reconstructs [m]
   exactly. Used by tests, example programs and the CLI. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* A literal [of_opt] rejects (out of range, malformed) is a parse error,
   never the stdlib's Failure/Invalid_argument. *)
let convert what (of_opt : string -> 'a option) (text : string) : 'a =
  match of_opt text with Some v -> v | None -> fail "bad %s %s" what text

(* --- lexer -------------------------------------------------------------- *)

type token =
  | IDENT of string
  | INT of int64
  | FLOAT of float
  | STRING of string
  | REG of int
  | GLOB of string
  | LPAREN | RPAREN | LBRACK | RBRACK | LBRACE | RBRACE
  | COLON | COMMA | EQUALS | LT | GT
  | EOF

let token_to_string = function
  | IDENT s -> s
  | INT v -> Int64.to_string v
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "%S" s
  | REG r -> Printf.sprintf "%%%d" r
  | GLOB g -> "@" ^ g
  | LPAREN -> "(" | RPAREN -> ")" | LBRACK -> "[" | RBRACK -> "]"
  | LBRACE -> "{" | RBRACE -> "}"
  | COLON -> ":" | COMMA -> "," | EQUALS -> "=" | LT -> "<" | GT -> ">"
  | EOF -> "<eof>"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  let peek () = if !i < n then Some src.[!i] else None in
  let advance () = incr i in
  let read_while p =
    let start = !i in
    while !i < n && p src.[!i] do incr i done;
    String.sub src start (!i - start)
  in
  while !i < n do
    match src.[!i] with
    | ' ' | '\t' | '\r' | '\n' -> advance ()
    | ';' -> (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do incr i done
    | '(' -> advance (); push LPAREN
    | ')' -> advance (); push RPAREN
    | '[' -> advance (); push LBRACK
    | ']' -> advance (); push RBRACK
    | '{' -> advance (); push LBRACE
    | '}' -> advance (); push RBRACE
    | ':' -> advance (); push COLON
    | ',' -> advance (); push COMMA
    | '=' -> advance (); push EQUALS
    | '<' -> advance (); push LT
    | '>' -> advance (); push GT
    | '%' ->
      advance ();
      let digits = read_while is_digit in
      if String.length digits = 0 then fail "expected register number after %%";
      push (REG (convert "register number" int_of_string_opt digits))
    | '@' ->
      advance ();
      let name = read_while is_ident_char in
      if String.length name = 0 then fail "expected name after @";
      push (GLOB name)
    | '"' ->
      advance ();
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
           | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
           | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
           | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
           | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
           | Some '\'' -> advance (); Buffer.add_char buf '\''; go ()
           | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
           | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
           | Some 'x' ->
             advance ();
             if !i + 2 > n then fail "unterminated string";
             let hex = String.sub src !i 2 in
             i := !i + 2;
             Buffer.add_char buf
               (Char.chr (convert "\\x escape" int_of_string_opt ("0x" ^ hex)));
             go ()
           | Some d1 when is_digit d1 ->
             (* decimal escape \DDD as produced by %S *)
             let d = read_while is_digit in
             let byte s =
               Option.bind (int_of_string_opt s) (fun c ->
                   if c <= 255 then Some (Char.chr c) else None)
             in
             Buffer.add_char buf (convert "decimal escape" byte d);
             go ()
           | _ -> fail "bad escape in string")
        | Some c -> advance (); Buffer.add_char buf c; go ()
      in
      go ();
      push (STRING (Buffer.contents buf))
    | '-' | '0' .. '9' ->
      let start = !i in
      if src.[!i] = '-' then advance ();
      let _ = read_while is_digit in
      let is_float = ref false in
      if !i < n && src.[!i] = '.' then begin
        is_float := true;
        advance ();
        let _ = read_while is_digit in
        ()
      end;
      if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
        is_float := true;
        advance ();
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then advance ();
        let _ = read_while is_digit in
        ()
      end;
      let text = String.sub src start (!i - start) in
      if String.equal text "-" then fail "stray '-'";
      if !is_float then push (FLOAT (convert "float literal" float_of_string_opt text))
      else push (INT (convert "integer literal" Int64.of_string_opt text))
    | c when is_ident_start c ->
      let word = read_while is_ident_char in
      (match word with
       | "inf" -> push (FLOAT Float.infinity)
       | "nan" -> push (FLOAT Float.nan)
       | _ -> push (IDENT word))
    | c -> fail "unexpected character %C" c
  done;
  List.rev (EOF :: !toks)

(* --- token stream ------------------------------------------------------- *)

type stream = { mutable toks : token list }

let peek s = match s.toks with [] -> EOF | t :: _ -> t

let next s =
  match s.toks with
  | [] -> EOF
  | t :: rest ->
    s.toks <- rest;
    t

let expect s tok =
  let t = next s in
  if t <> tok then fail "expected %s, got %s" (token_to_string tok) (token_to_string t)

let expect_ident s word =
  match next s with
  | IDENT w when String.equal w word -> ()
  | t -> fail "expected %s, got %s" word (token_to_string t)

let ident s =
  match next s with
  | IDENT w -> w
  | t -> fail "expected identifier, got %s" (token_to_string t)

let int_lit s =
  match next s with
  | INT v -> v
  | t -> fail "expected integer, got %s" (token_to_string t)

(* --- types -------------------------------------------------------------- *)

let rec parse_ty s : Types.t =
  match next s with
  | IDENT "i1" -> Types.I1
  | IDENT "i8" -> Types.I8
  | IDENT "i32" -> Types.I32
  | IDENT "i64" -> Types.I64
  | IDENT "f64" -> Types.F64
  | IDENT "ptr" -> Types.Ptr
  | IDENT "void" -> Types.Void
  | LT ->
    let n = Int64.to_int (int_lit s) in
    expect_ident s "x";
    let ty = parse_ty s in
    expect s GT;
    Types.Vec (ty, n)
  | t -> fail "expected type, got %s" (token_to_string t)

(* --- values ------------------------------------------------------------- *)

let parse_value s ~(ty : Types.t) : Value.t =
  match next s with
  | REG r -> Value.Reg r
  | GLOB g -> Value.Global g
  | INT v -> Value.cint (if Types.is_integer ty then ty else Types.I64) v
  | FLOAT f -> Value.cfloat f
  | IDENT "true" -> Value.ci1 true
  | IDENT "false" -> Value.ci1 false
  | IDENT "null" -> Value.cnull
  | IDENT "undef" -> Value.cundef ty
  | t -> fail "expected value, got %s" (token_to_string t)

let parse_args s ~ty =
  expect s LPAREN;
  if peek s = RPAREN then begin
    ignore (next s);
    []
  end
  else begin
    let rec go acc =
      let v = parse_value s ~ty in
      match next s with
      | COMMA -> go (v :: acc)
      | RPAREN -> List.rev (v :: acc)
      | t -> fail "expected ',' or ')', got %s" (token_to_string t)
    in
    go []
  end

(* --- instructions ------------------------------------------------------- *)

let binop_of_name = function
  | "add" -> Some Instr.Add | "sub" -> Some Instr.Sub | "mul" -> Some Instr.Mul
  | "sdiv" -> Some Instr.Sdiv | "udiv" -> Some Instr.Udiv
  | "srem" -> Some Instr.Srem | "urem" -> Some Instr.Urem
  | "and" -> Some Instr.And | "or" -> Some Instr.Or | "xor" -> Some Instr.Xor
  | "shl" -> Some Instr.Shl | "lshr" -> Some Instr.Lshr | "ashr" -> Some Instr.Ashr
  | "fadd" -> Some Instr.Fadd | "fsub" -> Some Instr.Fsub
  | "fmul" -> Some Instr.Fmul | "fdiv" -> Some Instr.Fdiv
  | _ -> None

let icmp_of_name = function
  | "eq" -> Instr.Eq | "ne" -> Instr.Ne
  | "slt" -> Instr.Slt | "sle" -> Instr.Sle | "sgt" -> Instr.Sgt | "sge" -> Instr.Sge
  | "ult" -> Instr.Ult | "ule" -> Instr.Ule | "ugt" -> Instr.Ugt | "uge" -> Instr.Uge
  | p -> fail "unknown predicate %s" p

let castop_of_name = function
  | "trunc" -> Some Instr.Trunc | "zext" -> Some Instr.Zext | "sext" -> Some Instr.Sext
  | "bitcast" -> Some Instr.Bitcast | "fptosi" -> Some Instr.Fptosi
  | "sitofp" -> Some Instr.Sitofp
  | _ -> None

let parse_op s (opname : string) : Instr.op =
  match binop_of_name opname with
  | Some b ->
    let ty = parse_ty s in
    let x = parse_value s ~ty in
    expect s COMMA;
    let y = parse_value s ~ty in
    Instr.Binop (b, ty, x, y)
  | None ->
    (match castop_of_name opname with
     | Some c ->
       let from_ty = parse_ty s in
       let v = parse_value s ~ty:from_ty in
       expect_ident s "to";
       let to_ty = parse_ty s in
       Instr.Cast (c, from_ty, to_ty, v)
     | None ->
       (match opname with
        | "icmp" ->
          let p = icmp_of_name (ident s) in
          let ty = parse_ty s in
          let x = parse_value s ~ty in
          expect s COMMA;
          let y = parse_value s ~ty in
          Instr.Icmp (p, ty, x, y)
        | "fcmp" ->
          let p = icmp_of_name (ident s) in
          let x = parse_value s ~ty:Types.F64 in
          expect s COMMA;
          let y = parse_value s ~ty:Types.F64 in
          Instr.Fcmp (p, x, y)
        | "select" ->
          let ty = parse_ty s in
          let c = parse_value s ~ty:Types.I1 in
          expect s COMMA;
          let x = parse_value s ~ty in
          expect s COMMA;
          let y = parse_value s ~ty in
          Instr.Select (ty, c, x, y)
        | "alloca" ->
          let ty = parse_ty s in
          expect_ident s "x";
          let n = Int64.to_int (int_lit s) in
          Instr.Alloca (ty, n)
        | "load" ->
          let ty = parse_ty s in
          expect s COMMA;
          let p = parse_value s ~ty:Types.Ptr in
          Instr.Load (ty, p)
        | "store" ->
          let ty = parse_ty s in
          let v = parse_value s ~ty in
          expect s COMMA;
          let p = parse_value s ~ty:Types.Ptr in
          Instr.Store (ty, v, p)
        | "gep" ->
          let ty = parse_ty s in
          let b = parse_value s ~ty:Types.Ptr in
          expect s COMMA;
          let i = parse_value s ~ty:Types.I64 in
          Instr.Gep (ty, b, i)
        | "call" ->
          let ty = parse_ty s in
          let g =
            match next s with
            | GLOB g -> g
            | t -> fail "expected @callee, got %s" (token_to_string t)
          in
          let args = parse_args s ~ty:Types.I64 in
          Instr.Call (ty, g, args)
        | "callind" ->
          let ty = parse_ty s in
          let f = parse_value s ~ty:Types.Ptr in
          let args = parse_args s ~ty:Types.I64 in
          Instr.Callind (ty, f, args)
        | "phi" ->
          let ty = parse_ty s in
          let rec go acc =
            expect s LBRACK;
            let l = ident s in
            expect s COLON;
            let v = parse_value s ~ty in
            expect s RBRACK;
            if peek s = COMMA then begin
              ignore (next s);
              go ((l, v) :: acc)
            end
            else List.rev ((l, v) :: acc)
          in
          Instr.Phi (ty, go [])
        | "memcpy" ->
          let d = parse_value s ~ty:Types.Ptr in
          expect s COMMA;
          let src = parse_value s ~ty:Types.Ptr in
          expect s COMMA;
          let n = parse_value s ~ty:Types.I64 in
          Instr.Memcpy (d, src, n)
        | "expect" ->
          let ty = parse_ty s in
          let v = parse_value s ~ty in
          expect s COMMA;
          let e = parse_value s ~ty in
          Instr.Expect (ty, v, e)
        | "intrinsic" ->
          let name = ident s in
          let ty = parse_ty s in
          let args = parse_args s ~ty:Types.I64 in
          Instr.Intrinsic (name, ty, args)
        | _ -> fail "unknown opcode %s" opname))

let parse_term s (kw : string) : Instr.term =
  match kw with
  | "ret" ->
    (match peek s with
     | IDENT "void" ->
       ignore (next s);
       Instr.Ret None
     | _ ->
       let ty = parse_ty s in
       let v = parse_value s ~ty in
       Instr.Ret (Some (ty, v)))
  | "br" -> Instr.Br (ident s)
  | "cbr" ->
    let c = parse_value s ~ty:Types.I1 in
    expect s COMMA;
    let t = ident s in
    expect s COMMA;
    let e = ident s in
    Instr.Cbr (c, t, e)
  | "switch" ->
    let ty = parse_ty s in
    let v = parse_value s ~ty in
    expect s LBRACK;
    let rec go acc =
      match peek s with
      | RBRACK ->
        ignore (next s);
        List.rev acc
      | _ ->
        let k = int_lit s in
        expect s COLON;
        let l = ident s in
        let acc = (k, l) :: acc in
        (match peek s with
         | COMMA -> ignore (next s); go acc
         | _ ->
           expect s RBRACK;
           List.rev acc)
    in
    let cases = go [] in
    expect s COMMA;
    expect_ident s "default";
    let d = ident s in
    Instr.Switch (ty, v, cases, d)
  | "unreachable" -> Instr.Unreachable
  | _ -> fail "unknown terminator %s" kw

let terminator_kw = function
  | "ret" | "br" | "cbr" | "switch" | "unreachable" -> true
  | _ -> false

(* --- functions, globals, module ----------------------------------------- *)

let parse_params s =
  expect s LPAREN;
  if peek s = RPAREN then begin
    ignore (next s);
    []
  end
  else begin
    let rec go acc =
      match next s with
      | REG r ->
        expect s COLON;
        let ty = parse_ty s in
        let acc = (r, ty) :: acc in
        (match next s with
         | COMMA -> go acc
         | RPAREN -> List.rev acc
         | t -> fail "expected ',' or ')', got %s" (token_to_string t))
      | t -> fail "expected parameter register, got %s" (token_to_string t)
    in
    go []
  end

let parse_attrs s =
  if peek s = LBRACK then begin
    ignore (next s);
    let rec go acc =
      match next s with
      | RBRACK -> Attrs.of_list acc
      | IDENT a -> go (a :: acc)
      | t -> fail "expected attribute, got %s" (token_to_string t)
    in
    go []
  end
  else Attrs.empty

let parse_block s label =
  let insns = ref [] in
  let rec go () =
    match peek s with
    | REG r ->
      ignore (next s);
      expect s EQUALS;
      let opname = ident s in
      let op = parse_op s opname in
      insns := Instr.mk r op :: !insns;
      go ()
    | IDENT kw when terminator_kw kw ->
      ignore (next s);
      parse_term s kw
    | IDENT opname ->
      ignore (next s);
      let op = parse_op s opname in
      insns := Instr.mk Instr.no_result op :: !insns;
      go ()
    | t -> fail "expected instruction, got %s" (token_to_string t)
  in
  let term = go () in
  Block.mk label (List.rev !insns) term

let parse_func s ~linkage =
  let name =
    match next s with
    | GLOB g -> g
    | t -> fail "expected @name, got %s" (token_to_string t)
  in
  let params = parse_params s in
  expect s COLON;
  let ret = parse_ty s in
  let attrs = parse_attrs s in
  expect s LBRACE;
  let rec go acc =
    match next s with
    | RBRACE -> List.rev acc
    | IDENT label ->
      expect s COLON;
      go (parse_block s label :: acc)
    | t -> fail "expected block label or '}', got %s" (token_to_string t)
  in
  let blocks = go [] in
  let max_id =
    List.fold_left
      (fun acc b ->
        List.fold_left (fun acc i -> max acc i.Instr.id) acc b.Block.insns)
      (List.fold_left (fun acc (r, _) -> max acc r) (-1) params)
      blocks
  in
  Func.mk ~attrs ~linkage ~name ~params ~ret ~blocks ~next_id:(max_id + 1) ()

let parse_declare s =
  let name =
    match next s with
    | GLOB g -> g
    | t -> fail "expected @name, got %s" (token_to_string t)
  in
  let params = parse_params s in
  expect s COLON;
  let ret = parse_ty s in
  let max_id = List.fold_left (fun acc (r, _) -> max acc r) (-1) params in
  Func.mk ~linkage:Func.External ~name ~params ~ret ~blocks:[] ~next_id:(max_id + 1) ()

let parse_global s ~linkage ~is_const =
  let name =
    match next s with
    | GLOB g -> g
    | t -> fail "expected @name, got %s" (token_to_string t)
  in
  expect s COLON;
  let elt_ty = parse_ty s in
  expect_ident s "x";
  let elems = Int64.to_int (int_lit s) in
  let init =
    if peek s = EQUALS then begin
      ignore (next s);
      match next s with
      | IDENT "zeroinit" -> Some Global.Zeroinit
      | IDENT "ints" ->
        expect s LBRACK;
        let rec go acc =
          match next s with
          | RBRACK -> Some (Global.Ints (Array.of_list (List.rev acc)))
          | INT v ->
            (match peek s with
             | COMMA -> ignore (next s)
             | _ -> ());
            go (v :: acc)
          | t -> fail "expected int in global init, got %s" (token_to_string t)
        in
        go []
      | IDENT "floats" ->
        expect s LBRACK;
        let rec go acc =
          match next s with
          | RBRACK -> Some (Global.Floats (Array.of_list (List.rev acc)))
          | FLOAT v ->
            (match peek s with
             | COMMA -> ignore (next s)
             | _ -> ());
            go (v :: acc)
          | INT v ->
            (match peek s with
             | COMMA -> ignore (next s)
             | _ -> ());
            go (Int64.to_float v :: acc)
          | t -> fail "expected float in global init, got %s" (token_to_string t)
        in
        go []
      | IDENT "bytes" ->
        (match next s with
         | STRING str -> Some (Global.Bytes str)
         | t -> fail "expected string, got %s" (token_to_string t))
      | t -> fail "unknown global initializer %s" (token_to_string t)
    end
    else None
  in
  Global.mk ~is_const ~linkage ?init name elt_ty elems

let parse_module (src : string) : Modul.t =
  let s = { toks = tokenize src } in
  expect_ident s "module";
  let name = ident s in
  let globals = ref [] in
  let funcs = ref [] in
  let rec go () =
    match next s with
    | EOF -> ()
    | IDENT "internal" ->
      (match next s with
       | IDENT "func" -> funcs := parse_func s ~linkage:Func.Internal :: !funcs
       | IDENT "global" ->
         globals := parse_global s ~linkage:Global.Internal ~is_const:false :: !globals
       | IDENT "const" ->
         globals := parse_global s ~linkage:Global.Internal ~is_const:true :: !globals
       | t -> fail "expected func/global/const after internal, got %s" (token_to_string t));
      go ()
    | IDENT "func" ->
      (* a bare [func] in printed output means external linkage *)
      funcs := parse_func s ~linkage:Func.External :: !funcs;
      go ()
    | IDENT "declare" ->
      funcs := parse_declare s :: !funcs;
      go ()
    | IDENT "global" ->
      globals := parse_global s ~linkage:Global.External ~is_const:false :: !globals;
      go ()
    | IDENT "const" ->
      globals := parse_global s ~linkage:Global.External ~is_const:true :: !globals;
      go ()
    | t -> fail "expected top-level item, got %s" (token_to_string t)
  in
  go ();
  Modul.mk ~globals:(List.rev !globals) ~name (List.rev !funcs)
