function relax(cells, iterations) {
  var grid = [];
  for (var i = 0; i < cells; i++) {
    grid[i] = i % 5;
  }
  for (var it = 0; it < iterations; it++) {
    for (var i = 1; i < cells - 1; i++) {
      grid[i] = (grid[i - 1] + grid[i] * 2 + grid[i + 1]) / 4;
    }
  }
  var total = 0;
  for (var i = 0; i < cells; i++) {
    total = total + grid[i];
  }
  return Math.floor(total * 1000);
}
print(relax(40, 12));
