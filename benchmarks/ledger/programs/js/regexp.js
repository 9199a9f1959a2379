function run(rounds) {
  var text = [1, 2, 3, 1, 2, 1, 2, 3, 3, 1, 2, 3, 1, 1, 2];
  var pattern = [1, 2, 3];
  var matches = 0;
  for (var r = 0; r < rounds; r++) {
    matches = matches + regexMatchCount(text, pattern);
  }
  return matches;
}
print(run(150));
