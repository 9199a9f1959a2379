function decode(n) {
  var data = [];
  for (var i = 0; i < n; i++) {
    data[i] = (i * 37 + 11) % 256;
  }
  var checksum = 0;
  for (var pass = 0; pass < 15; pass++) {
    for (var i = 0; i < n; i++) {
      var b = data[i];
      var high = Math.floor(b / 16);
      var low = b % 16;
      checksum = (checksum + high * 31 + low * 7) % 65536;
    }
  }
  return checksum;
}
print(decode(64));
