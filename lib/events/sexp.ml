type t = Atom of string | List of t list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Hand-rolled reader: atoms are runs of non-delimiter characters,
   [;] comments run to end of line.  No quoting — scenario files need
   none, and the flat grammar keeps failure messages obvious. *)
let parse_string s =
  let n = String.length s in
  let pos = ref 0 in
  let line = ref 1 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () =
    (if !pos < n && s.[!pos] = '\n' then incr line);
    incr pos
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      while !pos < n && s.[!pos] <> '\n' do
        advance ()
      done;
      skip_ws ()
    | Some _ | None -> ()
  in
  let is_delim = function
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> true
    | _ -> false
  in
  let atom () =
    let start = !pos in
    while !pos < n && not (is_delim s.[!pos]) do
      advance ()
    done;
    Atom (String.sub s start (!pos - start))
  in
  let rec expr () =
    skip_ws ();
    match peek () with
    | None -> fail "line %d: unexpected end of input" !line
    | Some '(' ->
      advance ();
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | None -> fail "line %d: unclosed '('" !line
        | Some ')' -> advance ()
        | Some _ ->
          items := expr () :: !items;
          loop ()
      in
      loop ();
      List (List.rev !items)
    | Some ')' -> fail "line %d: unexpected ')'" !line
    | Some _ -> atom ()
  in
  let exprs = ref [] in
  skip_ws ();
  while peek () <> None do
    exprs := expr () :: !exprs;
    skip_ws ()
  done;
  List.rev !exprs

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  try parse_string s
  with Parse_error msg -> fail "%s: %s" path msg

let rec pp fmt = function
  | Atom a -> Format.pp_print_string fmt a
  | List items ->
    Format.fprintf fmt "(@[<hov>%a@])"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp)
      items

let to_string t = Format.asprintf "%a" pp t

(* --- accessors used by the file formats --- *)

let atom_exn = function
  | Atom a -> a
  | List _ as l -> fail "expected an atom, got %s" (to_string (List [ l ]))

let int_exn s =
  match int_of_string_opt (atom_exn s) with
  | Some v -> v
  | None -> fail "expected an integer, got %s" (to_string s)

let float_exn s =
  match float_of_string_opt (atom_exn s) with
  | Some v -> v
  | None -> fail "expected a number, got %s" (to_string s)

let find_field name items =
  List.find_map
    (function
      | List (Atom head :: rest) when head = name -> Some rest
      | Atom _ | List _ -> None)
    items

(* --- field readers shared by every format --- *)

let field name items =
  match find_field name items with
  | Some values -> values
  | None -> fail "missing (%s ...)" name

let one name conv = function
  | [ v ] -> conv v
  | _ -> fail "(%s ...) takes exactly one value" name

let scalar name conv items = one name conv (field name items)

let scalar_opt name conv items =
  Option.map (one name conv) (find_field name items)

let values_opt name conv items =
  match find_field name items with
  | Some (_ :: _ as vs) -> Some (List.map conv vs)
  | Some [] -> fail "(%s ...) needs at least one value" name
  | None -> None

let f17 = Printf.sprintf "%.17g"
