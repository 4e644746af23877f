(* The serve_mixed request stream: sizes, key ownership and the seeded
   mix of reads and revisions each client sends. *)

open Matrix

let regions = 8
let years = 5
let connections = 1

(* Each client revises only its own regions, so the last value it saw
   acknowledged for a key is the key's final value. *)
let owns ~client r = r mod connections = client

(* Revisions touch the last [tail_days] days of the series. *)
let tail_days = 40

type kind = Small | Sdmx | Asof | Pqr | Slice | Post

let kind_name = function
  | Small -> "get_small"
  | Sdmx -> "get_sdmx"
  | Asof -> "get_asof"
  | Pqr -> "get_pqr"
  | Slice -> "get_slice"
  | Post -> "post"

let gets = [ Small; Sdmx; Asof; Pqr; Slice ]

type request = {
  kind : kind;
  raw : string;
  revisions : ((string * string) * float) list;  (** (date, region), value *)
}

let small_cubes = [| "GDP"; "GDPT"; "PCHNG"; "GDP_INDEX"; "GDP_SMOOTH"; "RGDP" |]

let tail =
  lazy
    (let days = Array.of_list (Gdp_data.days ~years) in
     Array.sub days (Array.length days - tail_days) tail_days
     |> Array.map Calendar.Date.to_string)

(* The seeded request stream of one client.  GET classes, cheapest
   first, take 30/10/20/20/20% of the GETs, so the GET median falls in
   the middle of the 20% of the third-cheapest class and the 90th
   percentile in the middle of the PDR slices, not on the edge between
   two classes where a small change in the mix would move it. *)
let stream ~seed ~client =
  let st = Random.State.make [| seed; 0x5E7E; client |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let region () = Gdp_data.region (Random.State.int st regions) in
  let get kind target =
    { kind; raw = Http_client.request ~meth:"GET" ~target ~body:""; revisions = [] }
  in
  let own =
    Array.of_list (List.filter (fun r -> owns ~client r) (List.init regions Fun.id))
  in
  fun () ->
    let x = Random.State.float st 1. in
    if x < 0.27 then
      let cube = pick small_cubes in
      if cube = "RGDP" then get Small (Printf.sprintf "/v1/cube/RGDP?r=%s" (region ()))
      else get Small ("/v1/cube/" ^ cube)
    else if x < 0.36 then get Sdmx ("/v1/sdmx/" ^ pick [| "GDP"; "GDPT"; "GDP_INDEX" |])
    else if x < 0.54 then
      get Asof (Printf.sprintf "/v1/cube/PQR/asof/2026-0%d-01" (1 + Random.State.int st 6))
    else if x < 0.72 then get Pqr (Printf.sprintf "/v1/cube/PQR?r=%s&limit=20" (region ()))
    else if x < 0.90 then get Slice (Printf.sprintf "/v1/cube/PDR?r=%s&limit=50" (region ()))
    else
      let size = pick [| 1; 1; 1; 10; 10; 100 |] in
      let tail = Lazy.force tail in
      let revisions =
        List.init size (fun _ ->
            let r = Gdp_data.region (pick own) in
            let d = pick tail in
            ((d, r), Float.round (1_000_000. +. Random.State.float st 2_000_000.)))
      in
      let body =
        String.concat ""
          (List.map
             (fun ((d, r), v) -> Printf.sprintf "set PDR %s %s %.1f\n" d r v)
             revisions)
      in
      { kind = Post; raw = Http_client.request ~meth:"POST" ~target:"/v1/update" ~body; revisions }

