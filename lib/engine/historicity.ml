open Matrix

type t = (string, (Calendar.Date.t * Cube.t) list ref) Hashtbl.t
(* Versions kept sorted by date, oldest first. *)

let create () = Hashtbl.create 32

let store t ~valid_from cube =
  let name = Cube.name cube in
  let versions =
    match Hashtbl.find_opt t name with
    | Some v -> v
    | None ->
        let v = ref [] in
        Hashtbl.replace t name v;
        v
  in
  let without =
    List.filter (fun (d, _) -> not (Calendar.Date.equal d valid_from)) !versions
  in
  versions :=
    List.sort
      (fun (a, _) (b, _) -> Calendar.Date.compare a b)
      ((valid_from, cube) :: without)

let versions t name =
  match Hashtbl.find_opt t name with Some v -> !v | None -> []

let as_of t date name =
  let applicable =
    List.filter (fun (d, _) -> Calendar.Date.compare d date <= 0) (versions t name)
  in
  match List.rev applicable with
  | (_, cube) :: _ -> Some cube
  | [] -> None

let version_count t name = List.length (versions t name)
