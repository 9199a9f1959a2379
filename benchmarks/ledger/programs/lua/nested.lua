function inner(a, b)
  return a * b + a - b
end
function outer(n)
  local acc = 0
  for i = 1, n do
    for j = 1, 5 do
      acc = acc + inner(i, j)
    end
  end
  return acc % 1000000
end
print(outer(120))
