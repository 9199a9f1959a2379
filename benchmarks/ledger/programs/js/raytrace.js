function vec(x, y, z) {
  return {x: x, y: y, z: z, dot: vecDot};
}
function vecDot(other) {
  return this.x * other.x + this.y * other.y + this.z * other.z;
}
function traceRow(width) {
  var origin = vec(0, 0, -5);
  var acc = 0;
  for (var i = 0; i < width; i++) {
    var dir = vec(i / width, 0.5, 1);
    var b = 2 * origin.dot(dir);
    var c = origin.dot(origin) - 16;
    var disc = b * b - 4 * c;
    if (disc > 0) {
      acc = acc + Math.sqrt(disc);
    }
  }
  return Math.floor(acc);
}
print(traceRow(120));
