function emulate(steps) {
  var mem = [];
  for (var i = 0; i < 64; i++) {
    mem[i] = (i * 7 + 3) % 256;
  }
  var a = 0;
  var pc = 0;
  for (var s = 0; s < steps; s++) {
    var op = mem[pc % 64] % 4;
    if (op == 0) { a = (a + mem[(pc + 1) % 64]) % 256; }
    else { if (op == 1) { a = (a * 2) % 256; }
    else { if (op == 2) { mem[(pc + 2) % 64] = a; }
    else { a = (a + 1) % 256; } } }
    pc = pc + 3;
  }
  return a;
}
print(emulate(500));
