function makeNode(key) {
  return {key: key, left: null, right: null};
}
function insert(root, key) {
  if (root == null) { return makeNode(key); }
  var node = root;
  while (true) {
    if (key < node.key) {
      if (node.left == null) { node.left = makeNode(key); break; }
      node = node.left;
    } else {
      if (node.right == null) { node.right = makeNode(key); break; }
      node = node.right;
    }
  }
  return root;
}
function depthOf(root, key) {
  var depth = 0;
  var node = root;
  while (node != null) {
    if (key == node.key) { return depth; }
    if (key < node.key) { node = node.left; } else { node = node.right; }
    depth++;
  }
  return 0 - 1;
}
function run(n) {
  var root = null;
  var seed = 7;
  for (var i = 0; i < n; i++) {
    seed = (seed * 131 + 17) % 1000;
    root = insert(root, seed);
  }
  var total = 0;
  seed = 7;
  for (var i = 0; i < n; i++) {
    seed = (seed * 131 + 17) % 1000;
    total = total + depthOf(root, seed);
  }
  return total;
}
print(run(60));
