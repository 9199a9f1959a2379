function modpow(base, exponent, modulus) {
  var result = 1;
  var b = base % modulus;
  var e = exponent;
  while (e > 0) {
    if (e % 2 == 1) {
      result = (result * b) % modulus;
    }
    e = Math.floor(e / 2);
    b = (b * b) % modulus;
  }
  return result;
}
function run(n) {
  var acc = 0;
  for (var i = 1; i <= n; i++) {
    acc = (acc + modpow(i, 13, 497)) % 1000000;
  }
  return acc;
}
print(run(60));
