function c0(x) { return c1(x + 1); }
function c1(x) { return c2(x + 1); }
function c2(x) { return c3(x + 1); }
function c3(x) { return c4(x + 1); }
function c4(x) { return c5(x + 1); }
function c5(x) { return c6(x + 1); }
function c6(x) { return c7(x + 1); }
function c7(x) { return x + 1; }
function schedule(rounds) {
  var total = 0;
  for (var r = 0; r < rounds; r++) { total = total + c0(r); }
  return total;
}
print(0);
