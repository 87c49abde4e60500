let range n = List.init n (fun i -> i)

let range_from lo hi = if hi <= lo then [] else List.init (hi - lo) (fun i -> lo + i)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let rec drop n = function
  | [] -> []
  | _ :: rest as all -> if n <= 0 then all else drop (n - 1) rest

let min_by_key key = function
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun (b, kb) x ->
           let kx = key x in
           if kx < kb then (x, kx) else (b, kb))
         (first, key first) rest)

let min_by key list = Option.map fst (min_by_key key list)

let pairs list =
  let rec loop acc = function
    | [] -> List.rev acc
    | x :: rest ->
      let acc = List.fold_left (fun acc y -> (x, y) :: acc) acc rest in
      loop acc rest
  in
  loop [] list
