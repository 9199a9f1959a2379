function makeTask(id, priority) {
  return {id: id, priority: priority, state: 0, count: 0, run: taskRun};
}
function taskRun(quantum) {
  var i = 0;
  while (i < quantum) {
    this.count = this.count + this.priority;
    this.state = (this.state + 1) % 3;
    i++;
  }
  return this.count;
}
function schedule(rounds) {
  var t1 = makeTask(1, 1);
  var t2 = makeTask(2, 2);
  var t3 = makeTask(3, 3);
  var total = 0;
  for (var r = 0; r < rounds; r++) {
    total = total + t1.run(4) + t2.run(3) + t3.run(2);
  }
  return total;
}
print(schedule(40));
