type t = Value.t array

let of_array a = a
let of_list = Array.of_list
let to_array = Array.copy
let to_list = Array.to_list
let arity = Array.length
let get t i = t.(i)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la then Int.compare la lb
    else if i >= lb then 1
    else
      match Value.compare a.(i) b.(i) with 0 -> loop (i + 1) | c -> c
  in
  loop 0

let equal a b = compare a b = 0

let hash t =
  let h = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash t.(i)
  done;
  !h

let project t idxs = Array.map (fun i -> t.(i)) idxs

let append t y =
  let n = Array.length t in
  let out = Array.make (n + 1) y in
  Array.blit t 0 out 0 n;
  out

let to_string t =
  "(" ^ String.concat ", " (List.map Value.to_string (Array.to_list t)) ^ ")"

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Table = struct
  include Hashtbl.Make (Key)

  let find_multi tbl key = Option.value ~default:[] (find_opt tbl key)
  let add_multi tbl key v = replace tbl key (v :: find_multi tbl key)

  let filter_multi tbl key keep =
    match find_opt tbl key with
    | None -> ()
    | Some vs -> (
        match List.filter keep vs with
        | [] -> remove tbl key
        | vs' -> replace tbl key vs')
end
module Map = Map.Make (Key)
module Set = Set.Make (Key)
