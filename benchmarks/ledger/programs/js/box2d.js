function makeBody(x, y) {
  return {x: x, y: y, vx: 1, vy: 0, step: bodyStep};
}
function bodyStep(dt) {
  this.vy = this.vy + 10 * dt;
  this.x = this.x + this.vx * dt;
  this.y = this.y + this.vy * dt;
  if (this.y > 100) {
    this.y = 100;
    this.vy = 0 - this.vy * 0.5;
  }
  return this.y;
}
function simulate(bodies, steps) {
  var world = [];
  for (var i = 0; i < bodies; i++) {
    world[i] = makeBody(i, i * 2);
  }
  var total = 0;
  for (var s = 0; s < steps; s++) {
    for (var i = 0; i < bodies; i++) {
      total = total + world[i].step(0.1);
    }
  }
  return Math.floor(total);
}
print(simulate(6, 50));
