function body(n) {
  var xs = [];
  var ys = [];
  for (var i = 0; i < n; i++) {
    xs[i] = i * 0.5;
    ys[i] = n - i;
  }
  var acc = 0;
  for (var step = 0; step < 20; step++) {
    for (var i = 0; i < n; i++) {
      var x = xs[i] + ys[i] * 0.25;
      var y = ys[i] - xs[i] * 0.125;
      xs[i] = x;
      ys[i] = y;
      if (x * x + y * y > 1000000) {
        xs[i] = 0;
        ys[i] = 0;
      }
    }
    acc = acc + xs[step % n];
  }
  return Math.floor(acc);
}
print(body(48));
