type value =
  | Flag of bool ref
  | Int of int ref
  | String of string ref
  | Opt_string of string option ref

type spec = { names : string list; docv : string; doc : string; value : value }
type t = { prog : string; summary : string; mutable specs : spec list }

let create ~prog ~summary = { prog; summary; specs = [] }

let add t names ~docv ~doc value =
  t.specs <- t.specs @ [ { names; docv; doc; value } ]

let flag t names ~doc =
  let r = ref false in
  add t names ~docv:"" ~doc (Flag r);
  r

let int t names ~docv ~doc default =
  let r = ref default in
  add t names ~docv ~doc (Int r);
  r

let string t names ~docv ~doc default =
  let r = ref default in
  add t names ~docv ~doc (String r);
  r

let opt_string t names ~docv ~doc =
  let r = ref None in
  add t names ~docv ~doc (Opt_string r);
  r

let left_col s =
  let names = String.concat ", " s.names in
  if s.docv = "" then names else names ^ " " ^ s.docv

(* Wrap the doc string to keep usage lines readable in an 80-column
   terminal; the left column is padded to the widest option. *)
let wrap ~indent ~width text =
  let buf = Buffer.create (String.length text + 16) in
  let col = ref indent in
  List.iteri
    (fun i word ->
      let w = String.length word in
      if i > 0 && !col + 1 + w > width then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make indent ' ');
        col := indent
      end
      else if i > 0 then begin
        Buffer.add_char buf ' ';
        incr col
      end;
      Buffer.add_string buf word;
      col := !col + w)
    (String.split_on_char ' ' text |> List.filter (fun w -> w <> ""));
  Buffer.contents buf

let usage t =
  let b = Buffer.create 512 in
  Buffer.add_string b t.summary;
  Buffer.add_char b '\n';
  Buffer.add_string b ("usage: " ^ t.prog ^ "\n");
  if t.specs <> [] then begin
    let pad =
      List.fold_left (fun m s -> Int.max m (String.length (left_col s))) 0 t.specs
    in
    List.iter
      (fun s ->
        let l = left_col s in
        Buffer.add_string b
          (Printf.sprintf "  %-*s  %s\n" pad l
             (wrap ~indent:(pad + 4) ~width:78 s.doc)))
      t.specs
  end;
  Buffer.contents b

let die t msg =
  prerr_endline (t.prog ^ ": " ^ msg);
  exit 2

let find_spec t name = List.find_opt (fun s -> List.mem name s.names) t.specs

let parse t ?(start = 1) argv =
  let n = Array.length argv in
  let positional = ref [] in
  let i = ref start in
  while !i < n do
    let a = argv.(!i) in
    incr i;
    if a = "--help" || a = "-h" then begin
      print_string (usage t);
      exit 0
    end
    else if String.length a > 1 && a.[0] = '-' && a <> "-" then begin
      (* Split --name=value; otherwise the value (if the spec wants one) is
         the next argv entry. *)
      let name, inline =
        match String.index_opt a '=' with
        | Some eq ->
            ( String.sub a 0 eq,
              Some (String.sub a (eq + 1) (String.length a - eq - 1)) )
        | None -> (a, None)
      in
      match find_spec t name with
      | None -> die t (Printf.sprintf "unknown option %s" name)
      | Some s ->
          let value () =
            match inline with
            | Some v -> v
            | None ->
                if !i >= n then
                  die t (Printf.sprintf "option %s needs a value" name)
                else begin
                  let v = argv.(!i) in
                  incr i;
                  v
                end
          in
          (match s.value with
          | Flag r ->
              if inline <> None then
                die t (Printf.sprintf "option %s takes no value" name);
              r := true
          | Int r -> (
              let v = value () in
              match int_of_string_opt v with
              | Some x -> r := x
              | None ->
                  die t
                    (Printf.sprintf "option %s expects an integer, got %S"
                       name v))
          | String r -> r := value ()
          | Opt_string r -> r := Some (value ()))
    end
    else positional := a :: !positional
  done;
  List.rev !positional
