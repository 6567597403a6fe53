(* Turns pcsample output into shares of the samples, by layer and by
   symbol.

     symbolize.exe EXE OUT...

   EXE is the sampled executable and each OUT a pcsample file of one of
   its runs (every run has its own load address, read from the file's
   maps).  Symbols come from [nm -n].  A symbol's layer is its library:
   camlEngine__* is engine, camlNetsim__* netsim, and so on, with
   camlStdlib__* and camlCamlinternal* stdlib and the executable's own
   modules exe.  Everything else in the executable (caml_* and the
   rest of the C runtime) is runtime, and an address outside it counts
   under the file it falls in (libc, the vdso).  Shares are of all
   samples, so each table adds up to 100 %; the symbol table lists
   every symbol sampled, most samples first. *)

(* A hex field of nm or maps; the kernel's vsyscall page, above 2^62,
   wraps negative and so matches no sample. *)
let hex s = Int64.to_int (Int64.of_string ("0x" ^ s))

(* camlEngine__Wheel.take_561 is OCaml code, [Some "Engine__Wheel.take_561"]:
   function take of compilation unit Engine__Wheel, module Wheel of
   library engine. *)
let ocaml_name name =
  if String.length name > 4 && String.starts_with ~prefix:"caml" name
     && name.[4] >= 'A' && name.[4] <= 'Z'
  then Some (String.sub name 4 (String.length name - 4))
  else None

(* Library names have no '_', so a unit's library is the text before its
   first '_'. *)
let layer name =
  match ocaml_name name with
  | None -> "runtime"
  | Some s -> (
    let unit = List.hd (String.split_on_char '.' s) in
    match List.hd (String.split_on_char '_' unit) with
    | "Stdlib" | "Std" -> "stdlib"
    | lib when String.starts_with ~prefix:"Camlinternal" lib -> "stdlib"
    | "Dune" -> "exe"
    | lib -> String.lowercase_ascii lib)

(* Engine__Wheel.take for camlEngine__Wheel.take_561: the stamp goes. *)
let pretty name =
  match ocaml_name name with
  | None -> name
  | Some s -> (
    let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
    match String.rindex_opt s '_' with
    | Some i when digits (String.sub s (i + 1) (String.length s - i - 1)) ->
      String.sub s 0 i
    | _ -> s)

(* Text symbols of [exe], ascending by address. *)
let symbols exe =
  let ic =
    Unix.open_process_args_in "nm" [| "nm"; "-n"; "--defined-only"; exe |]
  in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
      match String.split_on_char ' ' line with
      | [ addr; ("T" | "t" | "W" | "w"); name ] ->
        read ((hex addr, name) :: acc)
      | _ -> read acc)
  in
  let syms = read [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("nm failed on " ^ exe));
  Array.of_list syms

(* The last symbol at or below [addr]. *)
let lookup syms addr =
  let rec go lo hi =
    (* syms.(lo) <= addr < syms.(hi) *)
    if hi - lo <= 1 then snd syms.(lo)
    else
      let mid = (lo + hi) / 2 in
      if fst syms.(mid) <= addr then go mid hi else go lo mid
  in
  if Array.length syms = 0 || addr < fst syms.(0) then "?"
  else go 0 (Array.length syms)

(* A position-independent executable (ELF type ET_DYN) is linked at 0
   and loaded where its offset-0 mapping starts. *)
let is_pie exe =
  In_channel.with_open_bin exe (fun ic ->
      match really_input_string ic 18 with
      | h -> Char.code h.[16] = 3
      | exception End_of_file -> false)

type mapping = { lo : int; hi : int; offset : int; file : string }

let parse_mapping line =
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | range :: _perms :: offset :: _dev :: _inode :: rest -> (
    match String.split_on_char '-' range with
    | [ lo; hi ] ->
      Some
        { lo = hex lo; hi = hex hi; offset = hex offset;
          file = String.concat " " rest }
    | _ -> None)
  | _ -> None

(* One pcsample file: its maps, then its addresses. *)
let read_samples path =
  In_channel.with_open_text path (fun ic ->
      let rec maps acc =
        match In_channel.input_line ic with
        | None | Some "--" -> List.rev acc
        | Some line -> (
          match parse_mapping line with
          | Some m -> maps (m :: acc)
          | None -> maps acc)
      in
      let maps = maps [] in
      let rec pcs acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some line -> pcs (hex line :: acc)
      in
      (maps, pcs []))

let () =
  match Array.to_list Sys.argv with
  | _ :: exe :: (_ :: _ as outs) ->
    let real = Unix.realpath exe in
    let syms = symbols exe and pie = is_pie exe in
    let by_layer = Hashtbl.create 16 and by_symbol = Hashtbl.create 256 in
    let count tbl k =
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
    in
    let total = ref 0 and inside = ref 0 in
    List.iter
      (fun out ->
        let maps, pcs = read_samples out in
        let bias =
          if not pie then 0
          else
            match List.find_opt (fun m -> m.file = real && m.offset = 0) maps with
            | Some m -> m.lo
            | None -> failwith (out ^ ": no mapping of " ^ real)
        in
        List.iter
          (fun pc ->
            incr total;
            match List.find_opt (fun m -> pc >= m.lo && pc < m.hi) maps with
            | Some m when m.file = real ->
              incr inside;
              let name = lookup syms (pc - bias) in
              count by_layer (layer name);
              count by_symbol (layer name, pretty name)
            | found ->
              let file =
                match found with
                | Some m when m.file <> "" -> Filename.basename m.file
                | _ -> "unmapped"
              in
              count by_layer file;
              count by_symbol (file, file))
          pcs)
      outs;
    let n = !total in
    let share c = 100.0 *. float_of_int c /. float_of_int (max n 1) in
    let sorted tbl =
      List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl))
    in
    Printf.printf "%d samples in %d file(s), %d in %s\n\n" n (List.length outs) !inside
      (Filename.basename exe);
    Printf.printf "%-14s %8s %7s\n" "layer" "samples" "share";
    List.iter
      (fun (l, c) -> Printf.printf "%-14s %8d %6.1f%%\n" l c (share c))
      (sorted by_layer);
    Printf.printf "\n%7s %8s  %-10s %s\n" "share" "samples" "layer" "symbol";
    List.iter
      (fun ((l, s), c) -> Printf.printf "%6.1f%% %8d  %-10s %s\n" (share c) c l s)
      (sorted by_symbol)
  | _ ->
    prerr_endline "usage: symbolize.exe EXE OUT...";
    exit 2
