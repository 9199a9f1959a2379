function cons(head, tail) {
  return {head: head, tail: tail};
}
function listSum(list) {
  var total = 0;
  var node = list;
  while (node != null) {
    total = total + node.head;
    node = node.tail;
  }
  return total;
}
function rewrite(depth) {
  var list = null;
  for (var i = 0; i < depth; i++) {
    list = cons(i % 7, list);
  }
  var total = 0;
  for (var r = 0; r < 20; r++) {
    total = total + listSum(list);
  }
  return total;
}
print(rewrite(60));
