function idleHandler(x) { return x + 1; }
function workHandler(x) { return x * 2 - 1; }
function deviceHandler(x) { return x + 3; }
function dispatch(f, x) { return f(x); }
function schedule(rounds) {
  var total = 0;
  for (var r = 0; r < rounds; r++) {
    var i = 0;
    while (i < 4) {
      total = total + dispatch(idleHandler, i);
      total = total + dispatch(workHandler, i);
      total = total + dispatch(deviceHandler, i);
      var f = idleHandler;
      if (i % 2 == 1) { f = workHandler; }
      total = total + f(i);
      i++;
    }
  }
  return total;
}
print(0);
