(* Minimal JSON used by the trace sink, the run ledger and the serve
   daemon: objects, arrays, strings, ints, floats, bools, null, and the
   total decoders every ledger reader is written over. No external
   dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Structural equality, floats by [Float.equal] (NaN = NaN, 0. <> -0.) *)
let rec equal (a : t) (b : t) : bool =
  match a, b with
  | Float x, Float y -> Float.equal x y
  | Arr xs, Arr ys -> List.equal equal xs ys
  | Obj xs, Obj ys -> List.equal (fun (k, x) (l, y) -> String.equal k l && equal x y) xs ys
  | _ -> a = b

let escape_string (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec write (b : Buffer.t) (j : t) : unit =
  match j with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    (* %.17g round-trips every finite double through float_of_string; keep a
       decimal point so integral floats stay floats when parsed back *)
    if Float.is_finite f then begin
      let s = Printf.sprintf "%.17g" f in
      let s =
        if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
        else s ^ ".0"
      in
      Buffer.add_string b s
    end
    else Buffer.add_string b "null"
  | Str s -> Buffer.add_string b (escape_string s)
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        write b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (escape_string k);
        Buffer.add_char b ':';
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string (j : t) : string =
  let b = Buffer.create 128 in
  write b j;
  Buffer.contents b

(* --- parsing (recursive descent) --------------------------------------- *)

exception Parse_error of string

let of_string (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'u' ->
           advance ();
           if !pos + 4 > n then fail "short unicode escape";
           let code =
             match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
             | Some code -> code
             | None -> fail "bad unicode escape"
           in
           pos := !pos + 4;
           (* trace strings are ASCII; clamp the rest *)
           Buffer.add_char b (if code < 128 then Char.chr code else '?')
         | c -> fail (Printf.sprintf "bad escape \\%c" c));
        go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    let tok = String.sub s start (!pos - start) in
    if tok = "" then fail "expected a value";
    let float () =
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> pos := start; fail ("malformed number " ^ tok)
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then float ()
    else match int_of_string_opt tok with Some i -> Int i | None -> float ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member (key : string) (j : t) : t option =
  match j with
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

(* --- total decoding ---------------------------------------------------- *)

(* The one way a ledger reader turns a parsed document into values: each
   decoder raises [Decode] on a missing field or a value of the wrong
   shape, and [decode] maps that to [None], so a reader is total without
   an option match per field. A reader decodes every array the document
   holds and checks the lengths against each other before it allocates a
   table from a size the document declares. *)

exception Decode

let decode (f : t -> 'a) (j : t) : 'a option =
  match f j with v -> Some v | exception Decode -> None

let field (key : string) (j : t) : t =
  match member key j with Some v -> v | None -> raise Decode

let int : t -> int = function
  | Int i -> i
  | Float f when Float.is_integer f && Float.abs f < 0x1p62 -> int_of_float f
  | _ -> raise Decode

(* [write] emits every non-finite float as null; read it back as nan *)
let float : t -> float = function
  | Float f -> f
  | Int i -> float_of_int i
  | Null -> Float.nan
  | _ -> raise Decode

let string : t -> string = function Str s -> s | _ -> raise Decode

let list (f : t -> 'a) : t -> 'a list = function
  | Arr xs -> List.map f xs
  | _ -> raise Decode

let array (f : t -> 'a) (j : t) : 'a array = Array.of_list (list f j)
