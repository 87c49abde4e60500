type t = { mutable data : int array; mutable len : int }

let create hint = { data = Array.make (max 1 hint) 0; len = 0 }

let is_empty h = h.len = 0

let grow h =
  let data = Array.make (2 * Array.length h.data) 0 in
  Array.blit h.data 0 data 0 h.len;
  h.data <- data

let push h x =
  if h.len = Array.length h.data then grow h;
  let data = h.data in
  let i = ref h.len in
  h.len <- h.len + 1;
  data.(!i) <- x;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if data.(parent) > data.(!i) then begin
      let tmp = data.(parent) in
      data.(parent) <- data.(!i);
      data.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop h =
  if h.len = 0 then invalid_arg "Iheap.pop: empty heap";
  let data = h.data in
  let top = data.(0) in
  h.len <- h.len - 1;
  data.(0) <- data.(h.len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.len && data.(l) < data.(!smallest) then smallest := l;
    if r < h.len && data.(r) < data.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = data.(!smallest) in
      data.(!smallest) <- data.(!i);
      data.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  top
