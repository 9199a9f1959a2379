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
function cold0(x) {
  var acc = x + 0;
  var obj = {a: acc, b: 0};
  var i = 0;
  while (i < 2) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold1(x) {
  var acc = x + 1;
  var obj = {a: acc, b: 1};
  var i = 0;
  while (i < 3) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold2(x) {
  var acc = x + 2;
  var obj = {a: acc, b: 2};
  var i = 0;
  while (i < 4) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold3(x) {
  var acc = x + 3;
  var obj = {a: acc, b: 3};
  var i = 0;
  while (i < 2) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold4(x) {
  var acc = x + 4;
  var obj = {a: acc, b: 4};
  var i = 0;
  while (i < 3) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold5(x) {
  var acc = x + 5;
  var obj = {a: acc, b: 5};
  var i = 0;
  while (i < 4) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold6(x) {
  var acc = x + 6;
  var obj = {a: acc, b: 6};
  var i = 0;
  while (i < 2) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold7(x) {
  var acc = x + 7;
  var obj = {a: acc, b: 7};
  var i = 0;
  while (i < 3) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold8(x) {
  var acc = x + 8;
  var obj = {a: acc, b: 8};
  var i = 0;
  while (i < 4) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold9(x) {
  var acc = x + 9;
  var obj = {a: acc, b: 9};
  var i = 0;
  while (i < 2) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold10(x) {
  var acc = x + 10;
  var obj = {a: acc, b: 10};
  var i = 0;
  while (i < 3) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}
function cold11(x) {
  var acc = x + 11;
  var obj = {a: acc, b: 11};
  var i = 0;
  while (i < 4) {
    obj.a = obj.a * 2 - obj.b;
    i = i + 1;
  }
  return obj.a;
}

function hotPoly(n) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc * 3 + i * i - 1;
    i = i + 1;
  }
  return acc;
}
function hotObj(n) {
  var o = {value: 0, step: 2};
  var i = 0;
  while (i < n) {
    o.value = o.value + o.step;
    i = i + 1;
  }
  return o.value;
}
function startup(x) {
  var acc = 0;
  acc = acc + cold0(x);
  acc = acc + cold1(x);
  acc = acc + cold2(x);
  acc = acc + cold3(x);
  acc = acc + cold4(x);
  acc = acc + cold5(x);
  acc = acc + cold6(x);
  acc = acc + cold7(x);
  acc = acc + cold8(x);
  acc = acc + cold9(x);
  acc = acc + cold10(x);
  acc = acc + cold11(x);

  return acc;
}
print(0);
