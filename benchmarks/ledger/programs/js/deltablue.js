function makeVar(value) {
  return {value: value, stay: false};
}
function makeConstraint(input, output, scale, offset) {
  return {input: input, output: output, scale: scale, offset: offset,
          execute: constraintExecute};
}
function constraintExecute() {
  this.output.value = this.input.value * this.scale + this.offset;
  return this.output.value;
}
function chain(length, rounds) {
  var first = makeVar(1);
  var vars = [first];
  var constraints = [];
  for (var i = 0; i < length; i++) {
    var next = makeVar(0);
    constraints[i] = makeConstraint(vars[i], next, 2, 1);
    vars[i + 1] = next;
  }
  var total = 0;
  for (var r = 0; r < rounds; r++) {
    first.value = r;
    for (var i = 0; i < length; i++) {
      constraints[i].execute();
    }
    total = total + vars[length].value;
  }
  return total;
}
print(chain(6, 25));
