(* Plain-text table rendering for the benchmark harness.

   The bench executable reproduces the paper's tables; this module turns
   row data into aligned ASCII output comparable side-by-side with the
   published tables. *)

type align = Left | Right

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reverse order *)
}

let create ~title ~headers ?aligns () =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length headers then
        invalid_arg "Table.create: aligns/headers length mismatch";
      a
    | None -> List.map (fun _ -> Right) headers
  in
  { title; headers; aligns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- row :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let spaces = String.make (width - n) ' ' in
    match align with Left -> s ^ spaces | Right -> spaces ^ s

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let aligns = Array.of_list t.aligns in
  let render_row row =
    let cells = List.mapi (fun i cell -> pad aligns.(i) widths.(i) cell) row in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    "|"
    ^ String.concat "|"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (render_row t.headers ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) rows;
  Buffer.contents buf

let print t = print_string (render t)
